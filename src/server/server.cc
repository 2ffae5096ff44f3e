#include "server/server.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"

namespace msim::server {

Server::Server(const ServerConfig &config)
    : config_(config), service_(config.service)
{
}

Server::~Server()
{
    shutdown();
}

void
Server::start()
{
    fatalIf(listenFd_ >= 0, "msim-server already started");

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    fatalIf(listenFd_ < 0, "socket() failed: ", std::strerror(errno));

    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) !=
        1) {
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("invalid bind address '", config_.host, "'");
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("cannot bind ", config_.host, ":", config_.port, ": ",
              std::strerror(err));
    }
    if (::listen(listenFd_, 64) != 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("listen() failed: ", std::strerror(err));
    }

    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                  &len);
    port_ = ntohs(addr.sin_port);

    // The loop gets its own copy of the fd: shutdown() resets
    // listenFd_ while accept() may still be blocked on it.
    acceptThread_ =
        std::thread([this, lfd = listenFd_] { acceptLoop(lfd); });
}

void
Server::acceptLoop(int listen_fd)
{
    while (true) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            // Listener closed by shutdown(): exit the loop. Any
            // other error on a closed-down server means the same.
            return;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        if (shuttingDown_.load()) {
            // Satellite contract: a draining server *answers* new
            // connections with shutting_down instead of hanging them.
            ++service_.stats().connectionsRejected;
            try {
                writeFrame(fd, errorFrame(0, ErrCode::kShuttingDown,
                                          "server is shutting down"));
            } catch (...) {
            }
            ::close(fd);
            continue;
        }

        std::lock_guard<std::mutex> lock(connsMutex_);
        reapLocked();
        if (conns_.size() >= config_.maxConnections) {
            ++service_.stats().connectionsRejected;
            try {
                writeFrame(fd,
                           errorFrame(0, ErrCode::kOverloaded,
                                      "connection limit reached"));
            } catch (...) {
            }
            ::close(fd);
            continue;
        }
        ++service_.stats().connectionsAccepted;
        conns_.emplace_back();
        Conn *conn = &conns_.back();
        conn->fd = fd;
        conn->thread =
            std::thread([this, conn] { connectionLoop(conn); });
    }
}

void
Server::connectionLoop(Conn *conn)
{
    const int fd = conn->fd;
    try {
        std::string payload;
        while (readFrame(fd, payload)) {
            if (!beginRequest()) {
                ++service_.stats().shedShutdown;
                writeFrame(fd,
                           errorFrame(0, ErrCode::kShuttingDown,
                                      "server is shutting down"));
                continue;
            }
            try {
                const std::string response = service_.handlePayload(
                    payload, [fd](const std::string &frame) {
                        writeFrame(fd, frame);
                    });
                writeFrame(fd, response);
            } catch (...) {
                endRequest();
                throw;
            }
            endRequest();
        }
    } catch (const ProtocolError &e) {
        // Broken framing (oversized length prefix, truncated frame):
        // the stream position is unrecoverable, so answer with a
        // structured error when the socket still works, then drop
        // the connection. Malformed JSON and schema violations never
        // reach here — SimService answers those and the connection
        // lives on.
        ++service_.stats().responsesError;
        try {
            writeFrame(fd, errorFrame(0, e.code, e.what()));
        } catch (...) {
        }
    } catch (...) {
        // Vanished peer mid-write or an unexpected error: drop.
    }
    // Signal EOF to the peer now — the descriptor itself is closed
    // later by reapLocked()/shutdown(), which also own the join, so
    // a client waiting on a dropped connection is never left hanging
    // until the next accept.
    ::shutdown(fd, SHUT_RDWR);
    conn->done.store(true);
}

bool
Server::beginRequest()
{
    std::lock_guard<std::mutex> lock(inflightMutex_);
    if (shuttingDown_.load())
        return false;
    ++inflight_;
    return true;
}

void
Server::endRequest()
{
    {
        std::lock_guard<std::mutex> lock(inflightMutex_);
        --inflight_;
    }
    inflightCv_.notify_all();
}

void
Server::requestShutdown()
{
    std::lock_guard<std::mutex> lock(inflightMutex_);
    shuttingDown_.store(true);
}

void
Server::reapLocked()
{
    for (auto it = conns_.begin(); it != conns_.end();) {
        if (it->done.load()) {
            if (it->thread.joinable())
                it->thread.join();
            ::close(it->fd);
            it = conns_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Server::shutdown()
{
    if (stopped_)
        return;
    stopped_ = true;

    requestShutdown();

    if (listenFd_ >= 0) {
        // Drain: every accepted request finishes and its response is
        // fully written before any socket is touched. New work keeps
        // being answered with shutting_down meanwhile.
        {
            std::unique_lock<std::mutex> lock(inflightMutex_);
            inflightCv_.wait(lock, [this] { return inflight_ == 0; });
        }

        // Stop the accept loop (accept() fails once the fd closes)…
        const int lfd = listenFd_;
        listenFd_ = -1;
        ::shutdown(lfd, SHUT_RDWR);
        ::close(lfd);
        if (acceptThread_.joinable())
            acceptThread_.join();

        // …then unblock every idle reader and join. The accept
        // thread is gone, so conns_ can no longer grow.
        {
            std::lock_guard<std::mutex> lock(connsMutex_);
            for (Conn &c : conns_)
                if (!c.done.load())
                    ::shutdown(c.fd, SHUT_RDWR);
        }
        for (Conn &c : conns_)
            if (c.thread.joinable())
                c.thread.join();
        {
            std::lock_guard<std::mutex> lock(connsMutex_);
            for (Conn &c : conns_)
                ::close(c.fd);
            conns_.clear();
        }
    }

    service_.drain();
}

} // namespace msim::server
