/**
 * @file
 * e2ebench: run one workload and print its metrics.
 *
 *   e2ebench --workload <upload_ladder|fleet_global|cluster_observed>
 *            --seed <n> --seconds <s> --trace <0|1>
 *            [--trace-out <file>] [--commit <sha>] [--src-digest <hex>]
 *
 * Prints three JSON lines on stdout: the machine stamp, the
 * fingerprint (outputs that repeat exactly for a seed), and last the
 * result {"correct", "attempted", "failed", "metrics"}. With --trace 0
 * the metrics are the end-to-end ones, measured with tracing and the
 * profiler off; with --trace 1 they are the per-layer ones from a
 * traced run. Exits 2 on bad arguments, without a result.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload "
                 "<upload_ladder|fleet_global|cluster_observed> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--commit <sha>] [--src-digest <hex>]\n",
                 why);
    return 2;
}

bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end != nullptr && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    e2e::RunArgs args;
    std::string commit = "unknown";
    std::string src_digest = "unknown";
    double seed = -1.0, seconds = -1.0, trace = -1.0;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        bool ok = true;
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            ok = parseNumber(value, seed);
        else if (flag == "--seconds")
            ok = parseNumber(value, seconds);
        else if (flag == "--trace")
            ok = parseNumber(value, trace);
        else if (flag == "--trace-out")
            args.trace_out = value;
        else if (flag == "--commit")
            commit = value;
        else if (flag == "--src-digest")
            src_digest = value;
        else
            return usage(("unknown flag " + flag).c_str());
        if (!ok)
            return usage(("bad number for " + flag).c_str());
    }
    if (seed < 0 || seed != static_cast<double>(static_cast<uint64_t>(seed)))
        return usage("--seed must be a non-negative integer");
    if (!(seconds > 0))
        return usage("--seconds must be positive");
    if (trace != 0 && trace != 1)
        return usage("--trace must be 0 or 1");
    args.seed = static_cast<uint64_t>(seed);
    args.seconds = seconds;
    args.trace = trace == 1;

    e2e::RunResult (*run)(const e2e::RunArgs &) = nullptr;
    if (args.workload == "upload_ladder")
        run = [](const e2e::RunArgs &a) { return e2e::runUploadLadder(a); };
    else if (args.workload == "fleet_global")
        run = [](const e2e::RunArgs &a) { return e2e::runFleetGlobal(a); };
    else if (args.workload == "cluster_observed")
        run = [](const e2e::RunArgs &a) {
            return e2e::runClusterObserved(a);
        };
    else
        return usage(("unknown workload '" + args.workload + "'").c_str());

    std::printf("%s\n", e2e::machineJson(commit, src_digest).c_str());
    std::fflush(stdout);
    const e2e::RunResult result = run(args);
    std::printf("%s\n", e2e::fingerprintJson(args, result).c_str());
    std::printf("%s\n", e2e::resultJson(result).c_str());
    return 0;
}
