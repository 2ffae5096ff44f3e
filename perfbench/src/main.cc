/**
 * @file
 * msim-perfbench: run one named workload and print its metrics.
 *
 *   msim-perfbench --workload paper|memstall|serve --seed N
 *                  --seconds S --trace 0|1
 *                  [--smoke] [--corrupt-golden] [--trace-out FILE]
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics: the ten end-to-end metrics
 * with --trace 0, every per-layer metric with --trace 1. The exit
 * code is 0 whenever the run completed, even with failed operations
 * (they are reported, not hidden); it is non-zero, with no result
 * line, when the run could not complete at all.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hh"

#ifndef PERFBENCH_SHAPE_DIR
#define PERFBENCH_SHAPE_DIR "shapes"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: msim-perfbench --workload "
                 "paper|memstall|serve --seed N --seconds S --trace 0|1 "
                 "[--smoke] [--corrupt-golden] [--trace-out FILE]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::strtod(value().c_str(), nullptr);
        else if (arg == "--trace")
            opt.trace = value() != "0";
        else if (arg == "--trace-out")
            opt.traceOut = value();
        else if (arg == "--smoke")
            opt.smoke = true;
        else if (arg == "--corrupt-golden")
            opt.corruptGolden = true;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

void
printTable(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

void
printOperations(const Tally &tally)
{
    std::printf("latency by operation (ms: median, faster-quarter mean; "
                "repeats):\n");
    for (const auto &[key, s] : tally.ops)
        std::printf("  %-40s %10.3f %10.3f %6zu\n", key.c_str(),
                    median(s.latencies) * 1e3,
                    mean(fasterQuarter(s.latencies)) * 1e3,
                    s.latencies.size());
}

void
printSpans(const Tracer &tracer)
{
    std::printf("host time by span (self = total - child spans):\n");
    std::printf("  %-22s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto &[name, t] : tracer.times())
        std::printf("  %-22s %8llu %12.3f %12.3f\n", name.c_str(),
                    (unsigned long long)t.count, t.totalMs, t.selfMs);
}

void
printResult(const Outcome &o, const std::vector<Metric> &metrics)
{
    std::string json = "{\"correct\": ";
    json += o.tally.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(o.tally.attempted);
    json += ", \"failed\": " + std::to_string(o.tally.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "%.12g", metrics[i].value);
        json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
                "\": {\"value\": " + buf + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    // Presets resolve from the checkout's shapes/ unless overridden.
    setenv("MSIM_SHAPE_DIR", PERFBENCH_SHAPE_DIR, 0);

    Tracer tracer(opt.trace);
    ExactLedger ledger;
    Outcome o;
    try {
        if (opt.workload == "paper")
            o = runPaper(opt, tracer, ledger);
        else if (opt.workload == "memstall")
            o = runMemstall(opt, tracer, ledger);
        else if (opt.workload == "serve")
            o = runServe(opt, tracer, ledger);
        else
            usage(("unknown workload " + opt.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    std::printf("workload %s seed %llu: %llu operations, %llu failed, "
                "%zu rounds, %zu set-ups\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                (unsigned long long)o.tally.attempted,
                (unsigned long long)o.tally.failed,
                o.tally.roundWalls.size(), o.setupSeconds.size());
    std::printf("round wall s:");
    for (double wall : o.tally.roundWalls)
        std::printf(" %.3f", wall);
    std::printf("\n");
    printOperations(o.tally);
    std::printf("exact digest: run=%016llx components=%016llx\n",
                (unsigned long long)ledger.digest("rr/"),
                (unsigned long long)ledger.digest("st/"));
    std::vector<Metric> metrics;
    if (opt.trace) {
        printSpans(tracer);
        if (!opt.traceOut.empty())
            tracer.writeChrome(opt.traceOut);
        metrics = layerMetrics(o);
    } else {
        metrics = endToEndMetrics(o);
    }
    printTable(metrics);
    printResult(o, metrics);
    return 0;
}
