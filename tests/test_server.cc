/**
 * @file
 * msim-server tests: the JSON layer, msim-rpc-v1 framing and request
 * validation, the worker pool's bounded admission, differential
 * checks (server responses must be bit-identical to direct in-process
 * runs), protocol error paths (budget_exhausted, timeout, overloaded,
 * malformed input of every kind), graceful shutdown mid-sweep, and a
 * kill test against the real msim-server daemon (SIGTERM mid-sweep
 * must drain the stream and exit 0).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>

#include "bench/suites.hh"
#include "config/machine_shape.hh"
#include "exp/report.hh"
#include "exp/scheduler.hh"
#include "server/client.hh"
#include "common/json.hh"
#include "server/protocol.hh"
#include "server/server.hh"
#include "server/service.hh"
#include "server/worker_pool.hh"
#include "sim/runner.hh"

namespace {

using namespace msim;
using json::Value;

// ---------------------------------------------------------------------
// JSON: parser, writer, strictness.
// ---------------------------------------------------------------------

TEST(Json, RoundTripsDocuments)
{
    const std::string text =
        "{\"a\":1,\"b\":[true,null,\"x\"],\"c\":{\"d\":-2.5}}";
    const Value v = Value::parse(text);
    EXPECT_EQ(v.dump(), text);
}

TEST(Json, PreservesIntegers)
{
    const Value v = Value::parse("[1000000000000, 0, -7]");
    EXPECT_EQ(v.dump(), "[1000000000000,0,-7]");
    EXPECT_EQ(v.items()[0].asInt(), 1000000000000ll);
}

TEST(Json, DecodesEscapesAndSurrogatePairs)
{
    const Value v = Value::parse("\"a\\n\\t\\u0041\\uD83D\\uDE00\"");
    EXPECT_EQ(v.asString(), "a\n\tA\xF0\x9F\x98\x80");
}

TEST(Json, ObjectLookupIsInsertionOrdered)
{
    Value v = Value::object();
    v.set("z", Value(1));
    v.set("a", Value(2));
    EXPECT_EQ(v.dump(), "{\"z\":1,\"a\":2}");
    ASSERT_NE(v.find("a"), nullptr);
    EXPECT_EQ(v.find("a")->asInt(), 2);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedText)
{
    EXPECT_THROW(Value::parse(""), json::ParseError);
    EXPECT_THROW(Value::parse("{"), json::ParseError);
    EXPECT_THROW(Value::parse("{\"a\":}"), json::ParseError);
    EXPECT_THROW(Value::parse("[1,]"), json::ParseError);
    EXPECT_THROW(Value::parse("nul"), json::ParseError);
    EXPECT_THROW(Value::parse("1 2"), json::ParseError);  // trailing
    EXPECT_THROW(Value::parse("\"\x01\""), json::ParseError);
    EXPECT_THROW(Value::parse("\"\\q\""), json::ParseError);
    EXPECT_THROW(Value::parse("{\"a\" 1}"), json::ParseError);
    EXPECT_THROW(Value::parse("01"), json::ParseError);
}

TEST(Json, BoundsRecursionDepth)
{
    std::string deep(100, '[');
    deep += std::string(100, ']');
    EXPECT_THROW(Value::parse(deep, 64), json::ParseError);
    EXPECT_NO_THROW(Value::parse(deep, 128));
}

// ---------------------------------------------------------------------
// Content-addressed program cache.
// ---------------------------------------------------------------------

TEST(ContentHash, DistinguishesCompilePoints)
{
    const workloads::Workload w = workloads::get("example", 1);
    const std::uint64_t ms = workloadContentHash(w, true, {}, 1);
    EXPECT_EQ(ms, workloadContentHash(w, true, {}, 1));
    EXPECT_NE(ms, workloadContentHash(w, false, {}, 1));
    EXPECT_NE(ms, workloadContentHash(w, true, {"OPTMASK"}, 1));
    EXPECT_NE(ms, workloadContentHash(w, true, {}, 2));
}

TEST(ProgramCacheContent, MemoizesByContent)
{
    ProgramCache cache;
    EXPECT_FALSE(cache.contains("example", true));
    auto a = cache.get("example", true);
    EXPECT_TRUE(cache.contains("example", true));
    auto b = cache.get("example", true);
    EXPECT_EQ(a.get(), b.get());  // same immutable compilation
    auto c = cache.get("example", false);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(a->contentHash,
              workloadContentHash(a->workload, true, {}, 1));
}

TEST(ProgramCacheContent, UnknownWorkloadThrows)
{
    ProgramCache cache;
    EXPECT_THROW(cache.get("no-such-workload", true), FatalError);
}

// ---------------------------------------------------------------------
// Budget exhaustion surfaces cycles consumed and the budget.
// ---------------------------------------------------------------------

TEST(Budget, RunnerThrowsBudgetExhaustedError)
{
    ProgramCache cache;
    auto compiled = cache.get("wc", true);
    RunSpec spec;
    spec.maxCycles = 100;
    try {
        runCompiled(*compiled, spec);
        FAIL() << "expected BudgetExhaustedError";
    } catch (const BudgetExhaustedError &e) {
        EXPECT_EQ(e.budget, 100u);
        EXPECT_EQ(e.cyclesConsumed, 100u);
        EXPECT_NE(std::string(e.what()).find("cycle budget"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Worker pool: bounded admission, all-or-nothing sweeps, drain.
// ---------------------------------------------------------------------

TEST(WorkerPoolTest, RunsEverythingAdmitted)
{
    server::WorkerPool pool(2, 64);
    std::atomic<int> ran{0};
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(pool.tryEnqueue([&] { ++ran; }));
    pool.drain();
    EXPECT_EQ(ran.load(), 20);
}

TEST(WorkerPoolTest, ShedsWhenQueueIsFull)
{
    server::WorkerPool pool(1, 1);
    std::mutex gate;
    gate.lock();
    std::atomic<int> ran{0};
    // Occupy the single worker until the gate opens…
    ASSERT_TRUE(pool.tryEnqueue([&] {
        std::lock_guard<std::mutex> hold(gate);
        ++ran;
    }));
    // Busy-wait until the worker picked the job up, so the queue
    // depth below is deterministic.
    while (pool.queued() != 0)
        std::this_thread::yield();
    ASSERT_TRUE(pool.tryEnqueue([&] { ++ran; }));   // fills the queue
    EXPECT_FALSE(pool.tryEnqueue([&] { ++ran; }));  // shed
    // A 2-job batch can never fit a 1-slot queue: all-or-nothing.
    std::vector<server::WorkerPool::Job> batch;
    batch.emplace_back([&] { ++ran; });
    batch.emplace_back([&] { ++ran; });
    EXPECT_FALSE(pool.tryEnqueueAll(std::move(batch)));
    gate.unlock();
    pool.drain();
    EXPECT_EQ(ran.load(), 2);
    EXPECT_FALSE(pool.tryEnqueue([&] { ++ran; }));  // drained pool
}

// ---------------------------------------------------------------------
// Framing over a socketpair.
// ---------------------------------------------------------------------

class FramingTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
    }
    void TearDown() override
    {
        if (fds_[0] >= 0)
            ::close(fds_[0]);
        if (fds_[1] >= 0)
            ::close(fds_[1]);
    }
    int fds_[2] = {-1, -1};
};

TEST_F(FramingTest, RoundTripsPayloads)
{
    server::writeFrame(fds_[0], "{\"x\":1}");
    server::writeFrame(fds_[0], "");
    std::string payload;
    ASSERT_TRUE(server::readFrame(fds_[1], payload));
    EXPECT_EQ(payload, "{\"x\":1}");
    ASSERT_TRUE(server::readFrame(fds_[1], payload));
    EXPECT_EQ(payload, "");
    ::close(fds_[0]);
    fds_[0] = -1;
    EXPECT_FALSE(server::readFrame(fds_[1], payload));  // clean EOF
}

TEST_F(FramingTest, RejectsOversizedPrefixBeforeAllocating)
{
    const unsigned char hdr[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    ASSERT_EQ(::write(fds_[0], hdr, 4), 4);
    std::string payload;
    try {
        server::readFrame(fds_[1], payload);
        FAIL() << "expected ProtocolError";
    } catch (const server::ProtocolError &e) {
        EXPECT_EQ(e.code, server::ErrCode::kBadRequest);
    }
}

TEST_F(FramingTest, DetectsTruncatedFrames)
{
    const unsigned char hdr[4] = {0, 0, 0, 100};
    ASSERT_EQ(::write(fds_[0], hdr, 4), 4);
    ASSERT_EQ(::write(fds_[0], "abc", 3), 3);
    ::close(fds_[0]);
    fds_[0] = -1;
    std::string payload;
    EXPECT_THROW(server::readFrame(fds_[1], payload),
                 server::ProtocolError);
}

// ---------------------------------------------------------------------
// Request validation.
// ---------------------------------------------------------------------

server::ErrCode
parseErrorCode(const std::string &payload)
{
    try {
        server::parseRequest(payload);
    } catch (const server::ProtocolError &e) {
        return e.code;
    }
    ADD_FAILURE() << "no ProtocolError for: " << payload;
    return server::ErrCode::kInternal;
}

TEST(ParseRequest, AcceptsTheDocumentedSchema)
{
    const server::Request ping =
        server::parseRequest("{\"type\":\"ping\",\"id\":42}");
    EXPECT_EQ(ping.kind, server::Request::Kind::Ping);
    EXPECT_EQ(ping.id, 42);

    RunSpec spec;
    spec.multiscalar = true;
    spec.ms.numUnits = 8;
    spec.defines = {"SYNC"};
    const server::Request run = server::parseRequest(
        server::makeRunRequest("gcc", spec, 2, 7, 1500).dump());
    EXPECT_EQ(run.kind, server::Request::Kind::Run);
    EXPECT_EQ(run.id, 7);
    EXPECT_EQ(run.timeoutMs, 1500u);
    EXPECT_EQ(run.run.workload, "gcc");
    EXPECT_EQ(run.run.scale, 2u);
    EXPECT_EQ(run.run.spec.ms.numUnits, 8u);
    EXPECT_EQ(run.run.spec.defines, std::set<std::string>{"SYNC"});
}

TEST(ParseRequest, RejectsEverythingMalformed)
{
    using server::ErrCode;
    EXPECT_EQ(parseErrorCode("{nope"), ErrCode::kParseError);
    EXPECT_EQ(parseErrorCode("[1,2]"), ErrCode::kBadRequest);
    EXPECT_EQ(parseErrorCode("{\"type\":\"fly\"}"),
              ErrCode::kUnknownType);
    EXPECT_EQ(parseErrorCode("{\"id\":1}"), ErrCode::kBadRequest);
    EXPECT_EQ(parseErrorCode("{\"type\":\"run\"}"),
              ErrCode::kBadRequest);  // workload missing
    EXPECT_EQ(parseErrorCode("{\"type\":\"run\",\"workload\":5}"),
              ErrCode::kBadRequest);
    EXPECT_EQ(parseErrorCode("{\"type\":\"run\",\"workload\":\"wc\","
                             "\"scale\":0}"),
              ErrCode::kBadRequest);
    EXPECT_EQ(parseErrorCode("{\"type\":\"run\",\"workload\":\"wc\","
                             "\"spec\":{\"unitz\":4}}"),
              ErrCode::kBadRequest);  // spec typo must not run
    EXPECT_EQ(parseErrorCode("{\"type\":\"run\",\"workload\":\"wc\","
                             "\"spec\":{\"predictor\":\"oracle\"}}"),
              ErrCode::kBadRequest);
    // A malformed inline machine object must be rejected the same
    // way, not run on a default machine.
    EXPECT_EQ(parseErrorCode("{\"type\":\"run\",\"workload\":\"wc\","
                             "\"spec\":{\"machine\":{\"unitz\":4}}}"),
              ErrCode::kBadRequest);
    EXPECT_EQ(parseErrorCode("{\"type\":\"run\",\"workload\":\"wc\","
                             "\"spec\":{\"machine\":{\"units\":0}}}"),
              ErrCode::kBadRequest);
    EXPECT_EQ(parseErrorCode("{\"type\":\"sweep\"}"),
              ErrCode::kBadRequest);
    EXPECT_EQ(parseErrorCode("{\"type\":\"sweep\",\"cells\":[]}"),
              ErrCode::kBadRequest);
    EXPECT_EQ(parseErrorCode(
                  "{\"type\":\"sweep\",\"cells\":[{\"name\":\"a\","
                  "\"workload\":\"wc\"},{\"name\":\"a\","
                  "\"workload\":\"wc\"}]}"),
              ErrCode::kBadRequest);  // duplicate cell names
}

TEST(ParseRequest, CapsSweepSize)
{
    Value cells = Value::array();
    for (std::size_t i = 0; i <= server::kMaxSweepCells; ++i) {
        Value cell = Value::object();
        cell.set("name", Value("c" + std::to_string(i)));
        cell.set("workload", Value("wc"));
        cells.push(std::move(cell));
    }
    Value req = Value::object();
    req.set("type", Value("sweep"));
    req.set("cells", std::move(cells));
    EXPECT_EQ(parseErrorCode(req.dump()),
              server::ErrCode::kBadRequest);
}

TEST(SpecJson, RoundTripsSpecs)
{
    RunSpec spec;
    spec.multiscalar = true;
    spec.ms.numUnits = 8;
    spec.ms.pu.issueWidth = 2;
    spec.ms.pu.outOfOrder = true;
    spec.ms.ringHopLatency = 3;
    spec.ms.predictor = "last";
    spec.defines = {"SYNC", "EARLYV"};
    spec.maxCycles = 12345;
    const Value wire = server::specToJson(spec);
    const RunSpec back = server::specFromJson(&wire);
    EXPECT_EQ(server::specToJson(back).dump(),
              server::specToJson(spec).dump());
}

TEST(SpecJson, MachineObjectAppliesFirstFlatKeysOverride)
{
    // The inline "machine" object (msim-shape-v1) seeds the spec;
    // flat spec fields are applied afterwards and win.
    const Value wire = Value::parse(
        "{\"machine\":{\"schema\":\"msim-shape-v1\",\"units\":8,"
        "\"ring_hop_latency\":4,\"predictor\":{\"kind\":\"last\"}},"
        "\"ring_hop_latency\":2}");
    const RunSpec spec = server::specFromJson(&wire);
    EXPECT_TRUE(spec.multiscalar);
    EXPECT_EQ(spec.ms.numUnits, 8u);
    EXPECT_EQ(spec.ms.predictor, "last");
    EXPECT_EQ(spec.ms.ringHopLatency, 2u);
}

// ---------------------------------------------------------------------
// The service, in process (no sockets): differential runs, budget
// and timeout errors, overload shedding.
// ---------------------------------------------------------------------

server::ServiceConfig
smallService(unsigned jobs = 2, std::size_t queue = 64)
{
    server::ServiceConfig config;
    config.jobs = jobs;
    config.queueCapacity = queue;
    return config;
}

Value
callService(server::SimService &service, const Value &request,
            std::vector<Value> *streamed = nullptr)
{
    const std::string response = service.handlePayload(
        request.dump(), [&](const std::string &frame) {
            if (streamed != nullptr)
                streamed->push_back(Value::parse(frame));
        });
    return Value::parse(response);
}

TEST(Service, RunMatchesDirectRunCompiledBitForBit)
{
    server::SimService service(smallService());
    ProgramCache cache;
    for (const bool multiscalar : {false, true}) {
        RunSpec spec;
        spec.multiscalar = multiscalar;
        if (multiscalar)
            spec.ms.numUnits = 4;
        const Value response = callService(
            service,
            server::makeRunRequest("example", spec, 1, 3));
        ASSERT_FALSE(server::isErrorFrame(response))
            << response.dump();
        const RunResult direct = runCompiled(
            *cache.get("example", multiscalar, {}, 1), spec);
        ASSERT_NE(response.find("result"), nullptr);
        EXPECT_EQ(response.find("result")->dump(),
                  server::resultToJson(direct).dump());
        EXPECT_EQ(response.find("id")->asInt(), 3);
    }
}

TEST(Service, InlineMachineRunMatchesDirect)
{
    // A run whose spec carries only an inline machine object must be
    // bit-identical to the in-process run of the same shape.
    server::SimService service(smallService());
    config::MachineShape shape;
    shape.multiscalar = true;
    shape.ms.numUnits = 6;
    shape.ms.ringHopLatency = 2;
    shape.ms.arbEntriesPerBank = 32;
    shape.ms.predictor = "last";

    Value request = server::makeRunRequest("example", RunSpec{}, 1, 11);
    Value specJson = Value::object();
    specJson.set("machine", config::shapeToJson(shape));
    *request.find("spec") = std::move(specJson);

    const Value response = callService(service, request);
    ASSERT_FALSE(server::isErrorFrame(response)) << response.dump();
    ProgramCache cache;
    const RunResult direct = runCompiled(
        *cache.get("example", true, {}, 1), config::toRunSpec(shape));
    ASSERT_NE(response.find("result"), nullptr);
    EXPECT_EQ(response.find("result")->dump(),
              server::resultToJson(direct).dump());
    EXPECT_EQ(response.find("id")->asInt(), 11);
}

TEST(Service, BudgetExhaustionIsADistinctProtocolError)
{
    server::SimService service(smallService());
    RunSpec spec;
    spec.maxCycles = 100;
    const Value response = callService(
        service, server::makeRunRequest("wc", spec, 1, 9));
    ASSERT_TRUE(server::isErrorFrame(response)) << response.dump();
    EXPECT_EQ(server::errorCode(response), "budget_exhausted");
    ASSERT_NE(response.find("cycles_consumed"), nullptr);
    ASSERT_NE(response.find("budget"), nullptr);
    EXPECT_EQ(response.find("cycles_consumed")->asInt(), 100);
    EXPECT_EQ(response.find("budget")->asInt(), 100);
    EXPECT_EQ(response.find("id")->asInt(), 9);
    EXPECT_EQ(service.stats().budgetExhausted.load(), 1u);
}

TEST(Service, ServerWideCycleCapBoundsEveryRequest)
{
    server::ServiceConfig config = smallService();
    config.maxCyclesPerRequest = 50;
    server::SimService service(config);
    RunSpec spec;  // default budget of 1e9, clamped to 50
    const Value response = callService(
        service, server::makeRunRequest("wc", spec, 1, 1));
    ASSERT_TRUE(server::isErrorFrame(response));
    EXPECT_EQ(server::errorCode(response), "budget_exhausted");
    EXPECT_EQ(response.find("budget")->asInt(), 50);
}

TEST(Service, UnknownWorkloadIsAStructuredError)
{
    server::SimService service(smallService());
    RunSpec spec;
    const Value response = callService(
        service, server::makeRunRequest("quux", spec, 1, 2));
    ASSERT_TRUE(server::isErrorFrame(response));
    EXPECT_EQ(server::errorCode(response), "unknown_workload");
}

TEST(Service, WallClockTimeoutAnswersTimeout)
{
    server::SimService service(smallService(1));
    RunSpec spec;
    // gcc takes far longer than 1ms of wall clock on any host.
    const Value response = callService(
        service, server::makeRunRequest("gcc", spec, 1, 4, 1));
    ASSERT_TRUE(server::isErrorFrame(response)) << response.dump();
    EXPECT_EQ(server::errorCode(response), "timeout");
    EXPECT_EQ(service.stats().timeouts.load(), 1u);
    service.drain();  // the abandoned job must still run to completion
}

TEST(Service, OversizedSweepIsShedAllOrNothing)
{
    server::SimService service(smallService(1, 2));
    exp::Experiment e("shed");
    bench::declareTable2(e, bench::kSmokeOrder);  // 6 cells, queue 2
    std::vector<Value> streamed;
    const Value response = callService(
        service, server::makeSweepRequest(e.cells(), 5), &streamed);
    ASSERT_TRUE(server::isErrorFrame(response)) << response.dump();
    EXPECT_EQ(server::errorCode(response), "overloaded");
    EXPECT_TRUE(streamed.empty());  // nothing half-run
    EXPECT_EQ(service.stats().shedOverload.load(), 1u);
}

TEST(Service, StatsReportQueueAndCache)
{
    server::SimService service(smallService());
    Value statsReq = Value::object();
    statsReq.set("type", Value("stats"));
    statsReq.set("id", Value(1));
    const Value response = callService(service, statsReq);
    ASSERT_NE(response.find("stats"), nullptr);
    const Value &stats = *response.find("stats");
    ASSERT_NE(stats.find("queue"), nullptr);
    EXPECT_EQ(stats.find("queue")->find("capacity")->asInt(), 64);
    ASSERT_NE(stats.find("program_cache"), nullptr);
    EXPECT_EQ(stats.find("requests")->find("stats")->asInt(), 1);
}

// ---------------------------------------------------------------------
// Sweeps through the service match the SweepScheduler cell for cell.
// ---------------------------------------------------------------------

TEST(Service, SweepMatchesSweepSchedulerBitForBit)
{
    exp::Experiment e("differential");
    bench::declareTable2(e, bench::kSmokeOrder);

    server::SimService service(smallService());
    std::vector<Value> streamed;
    const Value done = callService(
        service, server::makeSweepRequest(e.cells(), 11), &streamed);
    ASSERT_FALSE(server::isErrorFrame(done)) << done.dump();
    EXPECT_EQ(done.find("type")->asString(), "sweep_done");
    EXPECT_EQ(done.find("cells_total")->asInt(),
              std::int64_t(e.cells().size()));
    EXPECT_EQ(done.find("cells_failed")->asInt(), 0);
    ASSERT_EQ(streamed.size(), e.cells().size());

    exp::SweepScheduler scheduler(2);
    const exp::SweepResult local = scheduler.run(e);

    // Restore registration order via the streamed index, then every
    // cell row must match the scheduler's — except wall clock.
    std::vector<const Value *> byIndex(e.cells().size(), nullptr);
    for (const Value &frame : streamed) {
        ASSERT_EQ(frame.find("type")->asString(), "sweep_cell");
        EXPECT_EQ(frame.find("id")->asInt(), 11);
        const std::size_t index =
            std::size_t(frame.find("index")->asInt());
        ASSERT_LT(index, byIndex.size());
        EXPECT_EQ(byIndex[index], nullptr);  // no duplicate streams
        byIndex[index] = frame.find("cell");
    }
    for (std::size_t i = 0; i < local.cells.size(); ++i) {
        ASSERT_NE(byIndex[i], nullptr);
        std::ostringstream os;
        exp::writeJsonCell(os, local.cells[i], "");
        Value localCell = Value::parse(os.str());
        // wall_seconds is host timing; everything else must agree.
        Value a = Value::object(), b = Value::object();
        for (const auto &[k, v] : byIndex[i]->entries())
            if (k != "wall_seconds")
                a.set(k, v);
        for (const auto &[k, v] : localCell.entries())
            if (k != "wall_seconds")
                b.set(k, v);
        EXPECT_EQ(a.dump(), b.dump())
            << "cell " << local.cells[i].name;
    }

    // The memoization invariant holds through the server path too.
    EXPECT_EQ(done.find("program_cache")->find("misses")->asInt(),
              std::int64_t(e.uniqueCompileKeys()));
}

// ---------------------------------------------------------------------
// The full TCP server: malformed input never crashes it, graceful
// shutdown drains mid-sweep.
// ---------------------------------------------------------------------

class ServerTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        server::ServerConfig config;
        config.service.jobs = 2;
        srv_ = std::make_unique<server::Server>(config);
        srv_->start();
        ASSERT_NE(srv_->port(), 0);
    }

    server::Client connect()
    {
        server::Client c;
        c.connect("127.0.0.1", srv_->port());
        return c;
    }

    int connectRaw()
    {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(srv_->port());
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            return -1;
        }
        return fd;
    }

    std::unique_ptr<server::Server> srv_;
};

TEST_F(ServerTest, AnswersOverTcp)
{
    server::Client client = connect();
    Value ping = Value::object();
    ping.set("type", Value("ping"));
    ping.set("id", Value(123));
    const Value pong = client.call(ping);
    EXPECT_EQ(pong.find("type")->asString(), "pong");
    EXPECT_EQ(pong.find("id")->asInt(), 123);
    EXPECT_EQ(pong.find("rpc")->asString(), "msim-rpc-v1");
}

TEST_F(ServerTest, MalformedPayloadsGetStructuredErrors)
{
    server::Client client = connect();
    const std::pair<const char *, const char *> cases[] = {
        {"{nope", "parse_error"},
        {"", "parse_error"},
        {"[1,2]", "bad_request"},
        {"42", "bad_request"},
        {"{\"type\":\"fly\"}", "unknown_type"},
        {"{\"type\":\"run\",\"workload\":5}", "bad_request"},
        {"{\"type\":\"run\",\"workload\":\"quux\"}",
         "unknown_workload"},
        {"{\"type\":\"run\",\"workload\":\"wc\","
         "\"spec\":{\"bogus\":1}}",
         "bad_request"},
    };
    // A parsed-but-not-an-object request through the client API.
    client.send(Value());
    const Value nullResp = client.recv();
    EXPECT_TRUE(server::isErrorFrame(nullResp));
    EXPECT_EQ(server::errorCode(nullResp), "bad_request");

    // Raw payloads (not valid JSON) need the frame API directly.
    const int fd = connectRaw();
    ASSERT_GE(fd, 0);
    for (const auto &[payload, code] : cases) {
        server::writeFrame(fd, payload);
        std::string response;
        ASSERT_TRUE(server::readFrame(fd, response))
            << "server dropped the connection on: " << payload;
        const Value v = Value::parse(response);
        EXPECT_TRUE(server::isErrorFrame(v)) << response;
        EXPECT_EQ(server::errorCode(v), code) << response;
    }
    // After all that abuse the same connection still works.
    server::writeFrame(fd, "{\"type\":\"ping\",\"id\":1}");
    std::string response;
    ASSERT_TRUE(server::readFrame(fd, response));
    EXPECT_EQ(Value::parse(response).find("type")->asString(),
              "pong");
    ::close(fd);
}

TEST_F(ServerTest, OversizedLengthPrefixAnswersThenDrops)
{
    const int fd = connectRaw();
    ASSERT_GE(fd, 0);
    const unsigned char hdr[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    ASSERT_EQ(::write(fd, hdr, 4), 4);
    // The server answers with a structured error…
    std::string response;
    ASSERT_TRUE(server::readFrame(fd, response));
    const Value v = Value::parse(response);
    EXPECT_TRUE(server::isErrorFrame(v));
    EXPECT_EQ(server::errorCode(v), "bad_request");
    // …and then drops the unrecoverable connection.
    EXPECT_FALSE(server::readFrame(fd, response));
    ::close(fd);

    // The server survives: new connections work.
    server::Client client = connect();
    Value ping = Value::object();
    ping.set("type", Value("ping"));
    EXPECT_EQ(client.call(ping).find("type")->asString(), "pong");
}

TEST_F(ServerTest, TruncatedFrameDropsOnlyThatConnection)
{
    const int fd = connectRaw();
    ASSERT_GE(fd, 0);
    const unsigned char hdr[4] = {0, 0, 0, 100};
    ASSERT_EQ(::write(fd, hdr, 4), 4);
    ASSERT_EQ(::write(fd, "abc", 3), 3);
    ::close(fd);  // mid-frame

    server::Client client = connect();
    Value ping = Value::object();
    ping.set("type", Value("ping"));
    EXPECT_EQ(client.call(ping).find("type")->asString(), "pong");
}

TEST_F(ServerTest, ShutdownWhileAcceptIsBlocked)
{
    // One round trip proves the accept thread is running; it is back
    // in accept() on the listener when shutdown() closes it, so under
    // TSan this covers shutdown racing the blocked accept loop.
    {
        server::Client client = connect();
        Value ping = Value::object();
        ping.set("type", Value("ping"));
        EXPECT_EQ(client.call(ping).find("type")->asString(), "pong");
    }
    srv_->shutdown();  // must wake the blocked accept() and join it
    EXPECT_LT(connectRaw(), 0) << "the listener is still open";
}

TEST_F(ServerTest, GracefulShutdownDrainsAMidFlightSweep)
{
    exp::Experiment e("drain");
    bench::declareTable2(e, bench::kSmokeOrder);

    server::Client client = connect();
    std::size_t streamed = 0;
    const server::Client::SweepOutcome outcome = client.sweep(
        server::makeSweepRequest(e.cells(), 21),
        [&](const server::Client::StreamedCell &) {
            // Flip into drain mode while the sweep is mid-stream:
            // the remaining cells must still arrive.
            if (++streamed == 1)
                srv_->requestShutdown();
        });
    EXPECT_EQ(outcome.cells.size(), e.cells().size());
    EXPECT_EQ(outcome.done.find("cells_failed")->asInt(), 0);

    // New work on the same connection is refused with shutting_down.
    Value ping = Value::object();
    ping.set("type", Value("ping"));
    const Value refused = client.call(ping);
    ASSERT_TRUE(server::isErrorFrame(refused)) << refused.dump();
    EXPECT_EQ(server::errorCode(refused), "shutting_down");

    // Brand-new connections are answered with shutting_down too.
    const int fd = connectRaw();
    ASSERT_GE(fd, 0);
    std::string response;
    ASSERT_TRUE(server::readFrame(fd, response));
    EXPECT_EQ(server::errorCode(Value::parse(response)),
              "shutting_down");
    ::close(fd);

    srv_->shutdown();  // must not hang with zero in-flight requests
}

// ---------------------------------------------------------------------
// The real daemon: SIGTERM mid-sweep drains the stream and exits 0.
// ---------------------------------------------------------------------

#ifdef MSIM_SERVER_BIN
TEST(Daemon, SigtermMidSweepDrainsAndExitsZero)
{
    int out[2];
    ASSERT_EQ(::pipe(out), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::dup2(out[1], STDOUT_FILENO);
        ::close(out[0]);
        ::close(out[1]);
        ::execl(MSIM_SERVER_BIN, MSIM_SERVER_BIN, "--print-port",
                "--jobs", "1", static_cast<char *>(nullptr));
        _exit(127);
    }
    ::close(out[1]);

    // First stdout line is the ephemeral port.
    std::string line;
    char ch;
    while (::read(out[0], &ch, 1) == 1 && ch != '\n')
        line += ch;
    ::close(out[0]);
    const int port = std::atoi(line.c_str());
    ASSERT_GT(port, 0) << "daemon did not report a port: " << line;

    exp::Experiment e("killtest");
    bench::declareTable2(e, bench::kSmokeOrder);
    server::Client client;
    client.connect("127.0.0.1", std::uint16_t(port));

    std::size_t streamed = 0;
    const server::Client::SweepOutcome outcome = client.sweep(
        server::makeSweepRequest(e.cells(), 31),
        [&](const server::Client::StreamedCell &) {
            // Kill the daemon after the first streamed cell; the
            // rest of the sweep must still arrive.
            if (++streamed == 1) {
                ASSERT_EQ(::kill(pid, SIGTERM), 0);
            }
        });
    EXPECT_EQ(outcome.cells.size(), e.cells().size());
    EXPECT_EQ(outcome.done.find("cells_failed")->asInt(), 0);
    client.close();

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status))
        << "daemon did not exit cleanly (status " << status << ")";
    EXPECT_EQ(WEXITSTATUS(status), 0);
}
#endif

} // namespace
