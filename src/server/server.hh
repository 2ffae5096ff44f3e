/**
 * @file
 * The msim-server TCP front end.
 *
 * Server binds a loopback listener (port 0 = ephemeral, reported by
 * port()), runs an accept thread, and gives every connection its own
 * reader thread. A connection speaks msim-rpc-v1 (protocol.hh): the
 * reader parses each frame, hands it to the shared SimService — which
 * shards the simulation work onto the daemon-wide worker pool — and
 * writes the response frames back; only the connection's own thread
 * writes to its socket, so streamed sweep cells never interleave with
 * other responses.
 *
 * Graceful shutdown (requestShutdown, used by the daemon's
 * SIGINT/SIGTERM handlers):
 *   1. new work is refused: requests arriving on existing
 *      connections and brand-new connections both receive a
 *      `shutting_down` error frame;
 *   2. in-flight requests — including a sweep mid-stream — drain to
 *      completion and their responses are fully written;
 *   3. sockets are closed, every thread is joined, and shutdown()
 *      returns so the daemon can exit 0.
 */

#ifndef MSIM_SERVER_SERVER_HH
#define MSIM_SERVER_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "server/service.hh"

namespace msim::server {

/** Daemon configuration: the service tunables plus the socket's. */
struct ServerConfig
{
    ServiceConfig service;
    /** Bind address (loopback by default; this is a local service). */
    std::string host = "127.0.0.1";
    /** TCP port; 0 picks an ephemeral port (see Server::port()). */
    std::uint16_t port = 0;
    /** Cap on concurrently open client connections. */
    unsigned maxConnections = 64;
};

/** A running msim-server instance. */
class Server
{
  public:
    explicit Server(const ServerConfig &config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen and start accepting (FatalError on bind errors). */
    void start();

    /** The bound TCP port (valid after start()). */
    std::uint16_t port() const { return port_; }

    /**
     * Flip into drain mode: refuse new work with `shutting_down`.
     * Cheap and thread-safe — the daemon's signal path calls it from
     * the main loop, tests call it mid-sweep.
     */
    void requestShutdown();

    /** True once requestShutdown was called. */
    bool shuttingDown() const { return shuttingDown_.load(); }

    /**
     * Graceful stop: requestShutdown, wait for in-flight requests to
     * drain, close every socket, join every thread. Idempotent.
     */
    void shutdown();

    SimService &service() { return service_; }
    const ServerConfig &config() const { return config_; }

  private:
    struct Conn
    {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    /** Accept connections on @p listen_fd until it is shut down. */
    void acceptLoop(int listen_fd);
    void connectionLoop(Conn *conn);
    /** Join and close finished connections (under connsMutex_). */
    void reapLocked();
    /** Begin/end one in-flight request (drain bookkeeping). */
    bool beginRequest();
    void endRequest();

    ServerConfig config_;
    SimService service_;

    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::thread acceptThread_;

    std::atomic<bool> shuttingDown_{false};
    bool stopped_ = false;

    std::mutex connsMutex_;
    std::list<Conn> conns_;

    std::mutex inflightMutex_;
    std::condition_variable inflightCv_;
    std::size_t inflight_ = 0;
};

} // namespace msim::server

#endif // MSIM_SERVER_SERVER_HH
