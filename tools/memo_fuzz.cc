/**
 * @file
 * Seeded differential fuzzer CLI.
 *
 *   memo_fuzz --seed 1 --iters 10000          # campaign
 *   memo_fuzz --seed 1 --iters 10000 --mutation
 *
 * Exit status 0 means the harness behaved as expected: no invariant
 * violations in a normal campaign, or (with --mutation) all five
 * injected bugs — the tag-comparison bug, the batched-replay
 * block-boundary off-by-one, the keyed-replay victim off-by-one, the
 * memory-pass key that ignores the L2 hit latency and the chunk
 * decoder's class split one word late — were caught. Any other
 * outcome exits 1, printing a shrunk counterexample and a one-line
 * repro.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "check/fuzz.hh"
#include "core/cli_args.hh"
#include "prof/heartbeat.hh"

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--seed S] [--iters N] [--stream L] "
                 "[--mutation] [--verbose]\n"
                 "  --seed S     campaign seed (default 1)\n"
                 "  --iters N    fuzz cases to run (default 1000)\n"
                 "  --stream L   accesses per case (default 256)\n"
                 "  --mutation   self-test: inject a tag-comparison\n"
                 "               bug, a block-boundary off-by-one, a\n"
                 "               keyed victim off-by-one, a memory-\n"
                 "               pass key ignoring the L2 hit latency\n"
                 "               and a chunk-codec class split one\n"
                 "               word late; the harness must catch\n"
                 "               all five\n"
                 "  --verbose    progress output every 1000 cases\n"
                 "  --progress   stderr heartbeat (rate/ETA); stdout\n"
                 "               stays byte-identical\n",
                 argv0);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    memo::check::FuzzOptions opts;
    bool mutation = false;
    bool progress = false;

    try {
        for (int i = 1; i < argc; i++) {
            auto need = [&](const char *flag) -> std::string {
                if (i + 1 >= argc)
                    throw std::runtime_error(std::string(flag) +
                                             " needs a value");
                return argv[++i];
            };
            if (!std::strcmp(argv[i], "--seed")) {
                opts.seed = memo::cli::parseUnsigned<uint64_t>(
                    "--seed", need("--seed"));
            } else if (!std::strcmp(argv[i], "--iters")) {
                opts.iters = memo::cli::parseCount<uint64_t>(
                    "--iters", need("--iters"));
            } else if (!std::strcmp(argv[i], "--stream")) {
                opts.streamLen = memo::cli::parseCount<unsigned>(
                    "--stream", need("--stream"));
            } else if (!std::strcmp(argv[i], "--mutation")) {
                mutation = true;
            } else if (!std::strcmp(argv[i], "--verbose")) {
                opts.verbose = true;
            } else if (!std::strcmp(argv[i], "--progress")) {
                progress = true;
            } else if (!std::strcmp(argv[i], "--help") ||
                       !std::strcmp(argv[i], "-h")) {
                usage(argv[0]);
                return 0;
            } else {
                std::fprintf(stderr, "memo_fuzz: unknown flag %s\n",
                             argv[i]);
                usage(argv[0]);
                return 2;
            }
        }
    } catch (const std::runtime_error &e) {
        std::fprintf(stderr, "memo_fuzz: %s\n", e.what());
        return 2;
    }

    if (mutation) {
        bool caught = memo::check::mutationSelfTest(opts, &std::cout);
        if (!caught) {
            std::cout << "FAIL: a differential harness did not "
                         "detect its injected bug\n";
            return 1;
        }
        std::cout << "ok: injected tag-comparison, block-boundary, "
                     "keyed-victim, memory-pass-key and chunk-split "
                     "bugs detected\n";
        return 0;
    }

    // The heartbeat is stderr-only display: campaign verdicts and
    // stdout output are byte-identical with or without it.
    std::optional<memo::prof::Heartbeat> heartbeat;
    if (progress) {
        heartbeat.emplace("fuzz", opts.iters);
        opts.progress = &heartbeat->counter();
    }

    auto failure = memo::check::fuzz(opts, &std::cout);
    if (heartbeat)
        heartbeat->stop();
    return failure ? 1 : 0;
}
