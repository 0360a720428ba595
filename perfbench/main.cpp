/**
 * @file
 * Pipeline benchmark: end-to-end build / synth / validate /
 * validate --sampled / fetch times, and a per-layer breakdown from a
 * traced run. Workloads, metrics and the layer -> end-to-end
 * predictions are documented in README.md beside this file.
 *
 *   perf_pipeline --workload <dpu-fbc|vpu-hevc|serve-mux> --seed <n>
 *                 --seconds <s> --trace <0|1> [--spans-out <path>]
 *
 * The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. Rounds repeat until
 * --seconds have passed; times are medians over rounds.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/hierarchy.hpp"
#include "core/model_generator.hpp"
#include "core/partition.hpp"
#include "core/profile.hpp"
#include "core/synthesis.hpp"
#include "dram/sharded.hpp"
#include "dram/simulate.hpp"
#include "mem/source.hpp"
#include "mem/wire.hpp"
#include "mux_fetch.hpp"
#include "sampling/feature_vector.hpp"
#include "sampling/representative.hpp"
#include "sampling/sampled_validate.hpp"
#include "serve/profile_store.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "span_recorder.hpp"
#include "util/thread_pool.hpp"
#include "validation/validate.hpp"
#include "workloads/devices.hpp"

namespace mt = mocktails;

namespace perfbench
{
namespace
{

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

constexpr unsigned kMaxThreads = 4;
constexpr std::size_t kChannels = 8;
constexpr std::uint64_t kChunkRequests = 512;
constexpr std::uint64_t kPullDepth = 2;
constexpr std::uint32_t kSampledK = 8;
constexpr int kSetupRepeats = 5;
// The first calls of a stage run slower while glibc raises its dynamic
// mmap threshold and the heap grows to the stage's working set (the
// second synth call on vpu-hevc takes twice as long as the third).
constexpr std::size_t kWarmupReps = 2;
constexpr std::size_t kMinReps = 3;
/** Rounds a run aims for; each stage samples every round. */
constexpr double kRounds = 6.0;
constexpr std::uint64_t kPhaseCycles = 500000;
const char *const kProfileId = "bench";

/**
 * One workload. In every round each stage (build, synth, validate,
 * validate_sampled, fetch) gets weight / total weight of the round's
 * time, so short stages get many samples and the workload's primary
 * stages get most of the time.
 */
struct Workload
{
    const char *name;
    const char *trace;     ///< Table II trace generator
    std::size_t requests;  ///< trace length
    /** Chunks fetched per channel each call; 0 = drain the stream. */
    std::uint64_t fetchChunks;
    /** serve-mux builds and serves its profile during set-up. */
    bool profileInSetup;
    double buildWeight;
    double synthWeight;
    double validateWeight;
    double sampledWeight;
    double fetchWeight;
    /** Leaf-count regime any seed must land in. */
    double minRequestsPerLeaf;
    double maxRequestsPerLeaf;
    /** Expected simulateSharded outcome (baseline, synthetic). */
    bool shardsBaseline;
    bool shardsSynthetic;
};

// Why these inputs: README.md. vpu-hevc runs 250k requests, not 1M,
// because its profile holds ~3.6 KB per leaf in memory. serve-mux uses
// FBC-Linear2: same leaf regime as FBC-Linear1, but at 250k requests
// the sharded DRAM speculation of both its streams aborts on every
// seed, where FBC-Linear1's synthetic stream aborts on some seeds only
// (15 of 20), which makes validate_s bimodal across seeds.
const Workload kWorkloads[] = {
    {"dpu-fbc", "FBC-Linear1", 1000000, 256, false, 1, 1, 3, 1, 1, 12.0,
     30.0, true, false},
    {"vpu-hevc", "HEVC1", 250000, 256, false, 1, 1, 1, 1, 1, 1.8, 3.2,
     true, true},
    {"serve-mux", "FBC-Linear2", 250000, 0, true, 1, 1, 1, 1, 4, 12.0,
     30.0, false, false},
};

struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
    /** Worker threads: kMaxThreads, never more than nproc. */
    unsigned threads = kMaxThreads;
};

/** FNV-1a over 64-bit words: one digest of every simulated result. */
class Digest
{
  public:
    void
    word(std::uint64_t v)
    {
        hash_ ^= v;
        hash_ *= 0x100000001b3ull;
    }

    void
    real(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        word(bits);
    }

    void
    bytes(const std::vector<std::uint8_t> &data)
    {
        word(data.size());
        for (const std::uint8_t b : data)
            word(b);
    }

    void
    text(const std::string &s)
    {
        word(s.size());
        for (const char c : s)
            word(static_cast<unsigned char>(c));
    }

    void
    requests(const std::vector<mt::mem::Request> &rs)
    {
        word(rs.size());
        for (const auto &r : rs) {
            word(r.tick);
            word(r.addr);
            word(r.size);
            word(static_cast<std::uint64_t>(r.op));
        }
    }

    void
    report(const mt::validation::ValidationReport &report)
    {
        for (const auto *metrics : {&report.dramMetrics,
                                    &report.cacheMetrics}) {
            for (const auto &m : *metrics) {
                text(m.name);
                real(m.baseline);
                real(m.synthetic);
            }
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Operations attempted and failed: stage calls and output checks. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    bool
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
        }
        return ok;
    }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, p in (0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/** Largest |sampled baseline - full baseline| / full baseline, %. */
double
sampledBaselineDeviation(
    const mt::validation::ValidationReport &full,
    const mt::validation::ValidationReport &sampled)
{
    std::map<std::string, double> base;
    for (const auto *metrics : {&full.dramMetrics, &full.cacheMetrics})
        for (const auto &m : *metrics)
            base[m.name] = m.baseline;
    double worst = 0.0;
    for (const auto *metrics :
         {&sampled.dramMetrics, &sampled.cacheMetrics}) {
        for (const auto &m : *metrics) {
            const auto it = base.find(m.name);
            if (it == base.end() || it->second == 0.0)
                continue;
            worst = std::max(worst, 100.0 *
                                        std::fabs(m.baseline -
                                                  it->second) /
                                        std::fabs(it->second));
        }
    }
    return worst;
}

double
baselineValue(const mt::validation::ValidationReport &report,
              const std::string &name)
{
    for (const auto *metrics :
         {&report.dramMetrics, &report.cacheMetrics})
        for (const auto &m : *metrics)
            if (m.name == name)
                return m.baseline;
    return 0.0;
}

bool
sameReport(const mt::validation::ValidationReport &a,
           const mt::validation::ValidationReport &b)
{
    Digest da;
    Digest db;
    da.report(a);
    db.report(b);
    return da.value() == db.value();
}

using Layers = std::map<std::string, double>;

/** One call of a stage. */
struct Rep
{
    bool first = false;  ///< its output feeds the next stage
    bool warmup = false; ///< untimed
    SpanRecorder *rec = nullptr; ///< set on traced reps
};

/** Samples of one stage: plain and (traced run only) traced reps. */
struct StageSamples
{
    std::vector<double> plain;
    std::vector<double> traced;
};

class Bench
{
  public:
    explicit Bench(const Options &options)
        : options_(options), workload_(*options.workload),
          config_(mt::core::PartitionConfig::twoLevelTs(kPhaseCycles))
    {
        if (options.trace)
            recorder_ = std::make_unique<SpanRecorder>();
    }

    ~Bench() { teardown(); }

    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    /** Set up kSetupRepeats times; the last set-up is kept. */
    bool
    setup()
    {
        for (int i = 0; i < kSetupRepeats; ++i) {
            if (!setupOnce())
                return false;
        }
        return true;
    }

    /**
     * Warm every stage up, then run rounds until --seconds have passed.
     * Each round calls every stage enough times to fill its weight's
     * share of a round, so each stage's samples spread over the whole
     * run rather than one window of it. The warm-up's first call of a
     * stage feeds the next stage; every later call must reproduce its
     * output exactly.
     */
    void
    run()
    {
        const Workload &w = workload_;
        std::vector<Stage> stages = {
            {"build", w.buildWeight, &Bench::buildOnce},
            {"synth", w.synthWeight, &Bench::synthOnce},
            {"validate", w.validateWeight, &Bench::validateOnce},
            {"validate_sampled", w.sampledWeight, &Bench::sampledOnce},
            {"fetch", w.fetchWeight, &Bench::fetchOnce},
        };
        for (Stage &stage : stages) {
            for (std::size_t i = 0; i < kWarmupReps; ++i) {
                if (!call(stage, Rep{i == 0, true, nullptr}))
                    return;
            }
        }
        checkRegime();

        double total_weight = 0.0;
        for (const Stage &stage : stages)
            total_weight += stage.weight;
        const double round_seconds = options_.seconds / kRounds;
        const Clock::time_point start = Clock::now();
        for (;;) {
            for (Stage &stage : stages) {
                const double share =
                    round_seconds * stage.weight / total_weight;
                const long calls = std::max(
                    1L, std::lround(share / std::max(stage.cost, 1e-6)));
                for (long i = 0; i < calls; ++i) {
                    const bool traced =
                        options_.trace && stage.timed % 2 == 1;
                    if (!call(stage, Rep{false, false,
                                         traced ? recorder_.get()
                                                : nullptr}))
                        return;
                }
                const double elapsed =
                    std::chrono::duration<double>(Clock::now() - start)
                        .count();
                const bool enough = std::all_of(
                    stages.begin(), stages.end(), [](const Stage &s) {
                        return s.timed >= kMinReps;
                    });
                if (elapsed >= options_.seconds && enough) {
                    completed_ = true;
                    return;
                }
            }
        }
    }

    /** Print the record lines and the result JSON. */
    void
    report()
    {
        std::map<std::string, std::pair<double, const char *>> metrics;
        if (completed_)
            options_.trace ? layerMetrics(metrics)
                           : endToEndMetrics(metrics);

        Digest digest;
        digest.bytes(bytes_);
        digest.requests(synthetic_.requests());
        digest.report(full_);
        digest.report(sampled_.report);
        digest.word(sampled_.simulatedRequests);
        for (const auto &stream : streams_)
            digest.requests(stream);
        std::printf("# digest %016llx (profile bytes, synthetic trace, "
                    "full and sampled reports, fetched streams)\n",
                    static_cast<unsigned long long>(digest.value()));
        for (const auto &[stage, samples] : stages_) {
            std::printf("# stage %-16s reps plain %zu traced %zu\n",
                        stage.c_str(), samples.plain.size(),
                        samples.traced.size());
        }
        std::printf("# chunk latency: %zu fetches of %zu chunks each\n",
                    chunkP99Ms_.size(), chunkSamples_);
        if (recorder_ != nullptr) {
            std::printf("# spans %zu\n", recorder_->size());
            if (!options_.spansOut.empty()) {
                tally_.check(recorder_->write(options_.spansOut),
                             "write spans to " + options_.spansOut);
            }
        }
        for (const auto &[name, value] : metrics)
            std::printf("# %-28s %.6g %s\n", name.c_str(), value.first,
                        value.second);

        const bool correct = completed_ && tally_.failed == 0;
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": {",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(
                        std::max<std::uint64_t>(tally_.attempted, 1)),
                    static_cast<unsigned long long>(tally_.failed));
        bool first = true;
        for (const auto &[name, value] : metrics) {
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        first ? "" : ", ", name.c_str(), value.first,
                        value.second);
            first = false;
        }
        std::printf("}}\n");
    }

  private:
    /** A stage of the pipeline and its calls so far. */
    struct Stage
    {
        const char *name;
        double weight;
        double (Bench::*once)(const Rep &, Layers &);
        double cost = 0.0;     ///< seconds of its latest call
        std::size_t timed = 0; ///< timed calls so far
    };

    /**
     * One call of @p stage. The traced run alternates plain and traced
     * timed calls: the plain ones are the overhead baseline. A stage
     * call returns its end-to-end seconds, or a negative value when it
     * failed.
     */
    bool
    call(Stage &stage, const Rep &rep)
    {
        Layers layers;
        double seconds = -1.0;
        try {
            seconds = (this->*stage.once)(rep, layers);
        } catch (const std::exception &e) {
            tally_.check(false, std::string(stage.name) + " threw: " +
                                    e.what());
        }
        if (seconds < 0.0)
            return false;
        stage.cost = seconds;
        if (rep.warmup)
            return true;
        ++stage.timed;
        StageSamples &samples = stages_[stage.name];
        (rep.rec != nullptr ? samples.traced : samples.plain)
            .push_back(seconds);
        if (rep.rec != nullptr) {
            for (const auto &[name, value] : layers)
                layerSamples_[name].push_back(value);
        }
        return true;
    }

    /** build: in-memory trace -> compressed profile bytes. */
    double
    buildOnce(const Rep &rep, Layers &layers)
    {
        std::vector<std::uint8_t> bytes;
        Timed build(rep.rec, "build");
        if (rep.rec != nullptr) {
            bytes = buildDecomposed(rep.rec, build.id(), layers);
        } else {
            bytes = mt::core::buildProfile(trace_, config_,
                                           mt::core::LeafModelerHooks{},
                                           options_.threads)
                        .encodeCompressed();
        }
        const double seconds = build.stop();
        layers["core.profile_bytes"] = static_cast<double>(bytes.size());
        if (rep.first) {
            bytes_ = std::move(bytes);
            return tally_.check(!bytes_.empty(), "build made a profile")
                       ? seconds
                       : -1.0;
        }
        tally_.check(bytes == bytes_, "build rep reproduces the bytes");
        return seconds;
    }

    /** synth: compressed bytes -> synthetic trace. */
    double
    synthOnce(const Rep &rep, Layers &layers)
    {
        mt::core::Profile profile;
        mt::mem::Trace synthetic;
        Timed synth(rep.rec, "synth");
        bool decoded = false;
        {
            Timed t(rep.rec, "core.profile_decode", synth.id());
            decoded = mt::core::Profile::decodeCompressed(bytes_, profile);
            layers["core.profile_decode_s"] = t.stop();
        }
        if (!tally_.check(decoded, "decode the built profile"))
            return -1.0;
        {
            Timed t(rep.rec, "core.synth", synth.id());
            synthetic = mt::core::synthesize(profile, options_.seed,
                                             options_.threads);
            layers["core.synth_s"] = t.stop();
        }
        const double seconds = synth.stop();
        layers["core.leaves"] = static_cast<double>(profile.leaves.size());
        if (!rep.first) {
            tally_.check(synthetic.requests() == synthetic_.requests(),
                         "synth rep reproduces the synthetic trace");
            return seconds;
        }
        tally_.check(profile.encodeCompressed() == bytes_,
                     "profile encode -> decode -> encode round trip");
        tally_.check(synthetic.size() == trace_.size(),
                     "synthetic trace has the baseline's length");
        profile_ = std::move(profile);
        synthetic_ = std::move(synthetic);
        return seconds;
    }

    /** validate: full DRAM + cache comparison. */
    double
    validateOnce(const Rep &rep, Layers &layers)
    {
        mt::validation::ValidationReport report;
        Timed validate(rep.rec, "validate");
        report = rep.rec != nullptr
                     ? validateDecomposed(validationOptions(), rep.rec,
                                          validate.id(), layers)
                     : mt::validation::validateProfile(
                           trace_, profile_, validationOptions());
        const double seconds = validate.stop();
        if (rep.rec != nullptr) {
            layers["validation.self_s"] =
                seconds - layers["validate.synth_s"] -
                std::max({layers["dram.baseline_s"],
                          layers["dram.synthetic_s"],
                          layers["cache.baseline_s"],
                          layers["cache.synthetic_s"]});
            layers.erase("validate.synth_s");
        }
        layers["cache.l1_miss_rate"] =
            baselineValue(report, "cache.l1_miss_rate");
        layers["cache.l2_miss_rate"] =
            baselineValue(report, "cache.l2_miss_rate");
        if (!rep.first) {
            tally_.check(sameReport(report, full_),
                         "validate rep reproduces the report");
            return seconds;
        }
        tally_.check(report.dramMetrics.size() == 5 &&
                         report.cacheMetrics.size() == 4,
                     "full validation compared nine metrics");
        full_ = std::move(report);
        return seconds;
    }

    /** validate --sampled with k = 8. */
    double
    sampledOnce(const Rep &rep, Layers &layers)
    {
        mt::sampling::SampledValidationOptions options;
        options.base = validationOptions();
        options.sampling.k = kSampledK;
        options.sampling.threads = options_.threads;
        if (rep.rec != nullptr) {
            // Standalone re-runs of the first two steps of
            // validateProfileSampled, outside the stage's timer.
            Timed s(rep.rec, "sampling.signatures");
            const auto signatures =
                mt::sampling::profileSignatures(profile_,
                                                options_.threads);
            layers["sampling.signatures_s"] = s.stop();
            Timed t(rep.rec, "sampling.select");
            const auto set = mt::sampling::selectRepresentatives(
                profile_, options.sampling);
            layers["sampling.select_s"] = t.stop();
            tally_.check(signatures.size() == profile_.leaves.size() &&
                             set.k > 0,
                         "sampling signatures and selection");
        }
        Timed t(rep.rec, "validate_sampled");
        mt::sampling::SampledValidationReport report =
            mt::sampling::validateProfileSampled(trace_, profile_,
                                                 options);
        const double seconds = t.stop();
        layers["sampling.simulated_share"] =
            report.totalRequests == 0
                ? 0.0
                : static_cast<double>(report.simulatedRequests) /
                      static_cast<double>(report.totalRequests);
        if (!rep.first) {
            tally_.check(sameReport(report.report, sampled_.report) &&
                             report.simulatedRequests ==
                                 sampled_.simulatedRequests,
                         "sampled rep reproduces the report");
            return seconds;
        }
        tally_.check(report.matched, "sampled validation matched the "
                                     "profile's leaves: " +
                                         report.note);
        sampled_ = std::move(report);
        return seconds;
    }

    /** fetch: 8 channels over one MuxClient connection. */
    double
    fetchOnce(const Rep &rep, Layers &layers)
    {
        if (!served_) {
            mt::core::Profile served;
            if (!tally_.check(mt::core::Profile::decodeCompressed(bytes_,
                                                                 served),
                              "decode the profile to serve"))
                return -1.0;
            store_->insert(kProfileId, std::move(served));
            served_ = true;
        }
        FetchPlan plan;
        plan.id = kProfileId;
        for (std::size_t c = 0; c < kChannels; ++c)
            plan.seeds.push_back(options_.seed + c);
        plan.chunkRequests = kChunkRequests;
        plan.pullDepth = kPullDepth;
        plan.chunksPerChannel = workload_.fetchChunks;

        Timed t(rep.rec, "fetch");
        FetchResult fetched = fetchClosedLoop(*client_, plan, nextChannel_);
        const double seconds = t.stop();
        if (!tally_.check(fetched.ok, "fetch: " + fetched.error))
            return -1.0;
        tally_.check(fetched.channelsCompleted == kChannels,
                     "every served channel delivered its requests");
        if (rep.rec != nullptr)
            serveDecomposed(plan, fetched, rep.rec, layers);
        if (rep.rec == nullptr && !rep.warmup) {
            fetchRates_.push_back(static_cast<double>(fetched.requests) /
                                  fetched.wallSeconds);
            chunkP50Ms_.push_back(percentile(fetched.chunkLatencyMs, 50.0));
            chunkP99Ms_.push_back(percentile(fetched.chunkLatencyMs, 99.0));
            chunkSamples_ = fetched.chunkLatencyMs.size();
        }
        if (!rep.first) {
            tally_.check(fetched.streams == streams_,
                         "fetch rep reproduces the served streams");
            return seconds;
        }
        const auto &served = fetched.streams.front();
        tally_.check(!served.empty() &&
                         served.size() <= synthetic_.size() &&
                         std::equal(served.begin(), served.end(),
                                    synthetic_.requests().begin()) &&
                         (workload_.fetchChunks != 0 ||
                          served.size() == synthetic_.size()),
                     "served channel equals local synthesize(profile, "
                     "seed)");
        streams_ = std::move(fetched.streams);
        return seconds;
    }

    mt::validation::ValidationOptions
    validationOptions() const
    {
        mt::validation::ValidationOptions options;
        options.seed = options_.seed;
        options.threads = options_.threads;
        return options;
    }

    /** buildProfile() as its two layers, plus encodeCompressed(). */
    std::vector<std::uint8_t>
    buildDecomposed(SpanRecorder *rec, int parent, Layers &layers)
    {
        mt::core::Profile profile;
        profile.name = trace_.name();
        profile.device = trace_.device();
        profile.config = config_;
        {
            std::vector<mt::core::Leaf> leaves;
            {
                Timed t(rec, "core.partition", parent);
                leaves = mt::core::buildLeaves(trace_, config_);
                layers["core.partition_s"] = t.stop();
            }
            Timed t(rec, "core.fit", parent);
            profile.leaves.resize(leaves.size());
            mt::util::parallelFor(
                leaves.size(),
                [&](std::size_t i) {
                    profile.leaves[i] = mt::core::modelLeaf(leaves[i]);
                },
                options_.threads);
            layers["core.fit_s"] = t.stop();
        }
        Timed t(rec, "core.profile_encode", parent);
        std::vector<std::uint8_t> bytes = profile.encodeCompressed();
        layers["core.profile_encode_s"] = t.stop();
        return bytes;
    }

    /**
     * validateProfile() with each substrate run timed: the same
     * synthesis, the same four runs fanned out over the pool, the same
     * report assembly (the rep check proves the reports equal).
     */
    mt::validation::ValidationReport
    validateDecomposed(const mt::validation::ValidationOptions &vopts,
                       SpanRecorder *rec, int parent, Layers &layers)
    {
        mt::mem::Trace synthetic;
        {
            Timed t(rec, "core.synth", parent);
            synthetic = mt::core::synthesize(profile_, vopts.seed,
                                             vopts.threads);
            layers["validate.synth_s"] = t.stop();
        }
        mt::dram::SimulationOptions sim;
        sim.threads = vopts.threads;
        mt::dram::SimulationResult dram_base;
        mt::dram::SimulationResult dram_synth;
        mt::cache::Hierarchy cache_base{mt::cache::HierarchyConfig{}};
        mt::cache::Hierarchy cache_synth{mt::cache::HierarchyConfig{}};
        double seconds[4] = {};
        const std::function<void()> tasks[4] = {
            [&] {
                Timed t(rec, "dram.baseline", parent);
                dram_base = mt::dram::simulateTrace(
                    trace_, mt::dram::DramConfig{},
                    mt::interconnect::CrossbarConfig{}, sim);
                seconds[0] = t.stop();
            },
            [&] {
                Timed t(rec, "dram.synthetic", parent);
                dram_synth = mt::dram::simulateTrace(
                    synthetic, mt::dram::DramConfig{},
                    mt::interconnect::CrossbarConfig{}, sim);
                seconds[1] = t.stop();
            },
            [&] {
                Timed t(rec, "cache.baseline", parent);
                cache_base.run(trace_);
                seconds[2] = t.stop();
            },
            [&] {
                Timed t(rec, "cache.synthetic", parent);
                cache_synth.run(synthetic);
                seconds[3] = t.stop();
            },
        };
        mt::util::parallelFor(
            4, [&](std::size_t i) { tasks[i](); }, vopts.threads);
        layers["dram.baseline_s"] = seconds[0];
        layers["dram.synthetic_s"] = seconds[1];
        layers["cache.baseline_s"] = seconds[2];
        layers["cache.synthetic_s"] = seconds[3];
        layers["dram.backpressure_ticks"] = static_cast<double>(
            dram_base.accumulatedDelay + dram_synth.accumulatedDelay);
        layers["dram.backpressure_rejects"] = static_cast<double>(
            dram_base.memory.backpressureRejects +
            dram_synth.memory.backpressureRejects);

        mt::validation::ValidationReport report;
        mt::validation::appendDramMetrics(dram_base, dram_synth,
                                          report.dramMetrics);
        mt::validation::appendCacheMetrics(cache_base, cache_synth,
                                           report.cacheMetrics);
        mt::validation::finalizeReport(report,
                                       vopts.passThresholdPercent);
        return report;
    }

    /**
     * What one fetch costs without the network: drain the same
     * sessions locally in the same chunks, then encode and decode them
     * with the wire codec. The rest of the fetch time is the event
     * loop, pool dispatch and sockets.
     */
    void
    serveDecomposed(const FetchPlan &plan, const FetchResult &fetched,
                    SpanRecorder *rec, Layers &layers)
    {
        const auto stored = store_->get(plan.id);
        if (!tally_.check(stored != nullptr, "store holds the profile"))
            return;
        using Chunks = std::vector<std::vector<mt::mem::Request>>;
        std::vector<Chunks> chunks(plan.seeds.size());
        {
            Timed t(rec, "serve.session");
            for (std::size_t c = 0; c < plan.seeds.size(); ++c) {
                mt::serve::SessionOptions session_options;
                session_options.seed = plan.seeds[c];
                mt::serve::SynthesisSession session(stored,
                                                    session_options);
                while (plan.chunksPerChannel == 0 ||
                       chunks[c].size() < plan.chunksPerChannel) {
                    std::vector<mt::mem::Request> chunk;
                    if (session.next(chunk, plan.chunkRequests) == 0)
                        break;
                    chunks[c].push_back(std::move(chunk));
                }
            }
            layers["serve.session_s"] = t.stop();
        }
        std::vector<std::vector<std::vector<std::uint8_t>>> wire(
            plan.seeds.size());
        std::size_t wire_bytes = 0;
        std::size_t chunk_count = 0;
        {
            Timed t(rec, "mem.wire_encode");
            for (std::size_t c = 0; c < chunks.size(); ++c) {
                mt::mem::RequestCodecState state;
                for (const auto &chunk : chunks[c]) {
                    mt::util::ByteWriter writer;
                    mt::mem::encodeRequests(writer, chunk.data(),
                                            chunk.size(), state);
                    wire_bytes += writer.size();
                    wire[c].push_back(writer.take());
                }
                chunk_count += chunks[c].size();
            }
            layers["mem.wire_encode_s"] = t.stop();
        }
        // Decode into one vector per channel, as MuxClient's sink does.
        std::vector<std::vector<mt::mem::Request>> decoded(
            plan.seeds.size());
        bool ok = true;
        {
            Timed t(rec, "mem.wire_decode");
            for (std::size_t c = 0; c < wire.size(); ++c) {
                mt::mem::RequestCodecState state;
                for (std::size_t i = 0; i < wire[c].size(); ++i) {
                    mt::util::ByteReader reader(wire[c][i]);
                    ok = mt::mem::decodeRequests(reader,
                                                 chunks[c][i].size(),
                                                 decoded[c], state) &&
                         ok;
                }
            }
            layers["mem.wire_decode_s"] = t.stop();
        }
        tally_.check(ok && decoded == fetched.streams,
                     "local session drain and wire round trip equal "
                     "the served streams");
        layers["serve.wire_bytes"] = static_cast<double>(wire_bytes);
        layers["serve.chunks"] = static_cast<double>(chunk_count);
    }

    /**
     * Guard against workloads tuned to one seed: the leaf-count regime
     * and, in the traced run, which DRAM runs shard.
     */
    void
    checkRegime()
    {
        const double per_leaf =
            static_cast<double>(trace_.size()) /
            static_cast<double>(
                std::max<std::size_t>(profile_.leaves.size(), 1));
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%.2f requests per leaf within [%.1f, %.1f]",
                      per_leaf, workload_.minRequestsPerLeaf,
                      workload_.maxRequestsPerLeaf);
        tally_.check(per_leaf >= workload_.minRequestsPerLeaf &&
                         per_leaf <= workload_.maxRequestsPerLeaf,
                     line);
        if (!options_.trace)
            return;
        // One simulateSharded probe per stream: did the speculation
        // complete, and how many events did it execute?
        const auto probe = [&](const mt::mem::Trace &t) {
            mt::mem::TraceSource source(t);
            return mt::dram::simulateSharded(
                source, mt::dram::DramConfig{},
                mt::interconnect::CrossbarConfig{}, options_.threads);
        };
        const mt::dram::ShardedRun base = probe(trace_);
        const mt::dram::ShardedRun synth = probe(synthetic_);
        once_["dram.sharded_ok.baseline"] = base.completed ? 1.0 : 0.0;
        once_["dram.sharded_ok.synthetic"] = synth.completed ? 1.0 : 0.0;
        once_["dram.events"] = static_cast<double>(base.eventsExecuted +
                                                   synth.eventsExecuted);
        tally_.check(base.completed == workload_.shardsBaseline &&
                         synth.completed == workload_.shardsSynthetic,
                     std::string("sharded DRAM pattern: baseline ") +
                         (base.completed ? "completed" : "aborted") +
                         ", synthetic " +
                         (synth.completed ? "completed" : "aborted"));
    }

    void
    endToEndMetrics(
        std::map<std::string, std::pair<double, const char *>> &out)
    {
        out["setup_s"] = {median(setupSeconds_), "s"};
        out["build_s"] = {median(stages_["build"].plain), "s"};
        out["synth_s"] = {median(stages_["synth"].plain), "s"};
        out["validate_s"] = {median(stages_["validate"].plain), "s"};
        out["validate_sampled_s"] = {
            median(stages_["validate_sampled"].plain), "s"};
        out["validate_worst_error_pct"] = {full_.worstErrorPercent, "%"};
        out["sampled_baseline_dev_pct"] = {
            sampledBaselineDeviation(full_, sampled_.report), "%"};
        out["fetch_req_per_s"] = {median(fetchRates_), "1/s"};
        out["fetch_chunk_p50_ms"] = {median(chunkP50Ms_), "ms"};
        out["fetch_chunk_p99_ms"] = {median(chunkP99Ms_), "ms"};
        out["peak_rss_mb"] = {peakRssMb(), "MB"};
    }

    void
    layerMetrics(
        std::map<std::string, std::pair<double, const char *>> &out)
    {
        static const std::map<std::string, const char *> kUnits = {
            {"core.partition_s", "s"},
            {"core.fit_s", "s"},
            {"core.leaves", "count"},
            {"core.profile_encode_s", "s"},
            {"core.profile_decode_s", "s"},
            {"core.profile_bytes", "bytes"},
            {"core.synth_s", "s"},
            {"dram.baseline_s", "s"},
            {"dram.synthetic_s", "s"},
            {"dram.backpressure_ticks", "ticks"},
            {"dram.backpressure_rejects", "count"},
            {"cache.baseline_s", "s"},
            {"cache.synthetic_s", "s"},
            {"cache.l1_miss_rate", "%"},
            {"cache.l2_miss_rate", "%"},
            {"validation.self_s", "s"},
            {"sampling.signatures_s", "s"},
            {"sampling.select_s", "s"},
            {"sampling.simulated_share", "ratio"},
            {"serve.session_s", "s"},
            {"mem.wire_encode_s", "s"},
            {"mem.wire_decode_s", "s"},
            {"serve.wire_bytes", "bytes"},
            {"serve.chunks", "count"},
        };
        for (const auto &[name, unit] : kUnits)
            out[name] = {median(layerSamples_[name]), unit};
        for (const auto &[name, value] : once_)
            out[name] = {value, name == "dram.events" ? "count" : "flag"};
        out["workloads.generate_s"] = {median(generateSeconds_), "s"};
        // Overhead: traced against plain reps of the same stages.
        double plain = 0.0;
        double traced = 0.0;
        for (const auto &[stage, samples] : stages_) {
            plain += median(samples.plain);
            traced += median(samples.traced);
        }
        out["trace.overhead_pct"] = {100.0 * (traced / plain - 1.0), "%"};
    }

    static double
    peakRssMb()
    {
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        return static_cast<double>(usage.ru_maxrss) / 1024.0;
    }

    void
    teardown()
    {
        client_.reset();
        if (server_ != nullptr)
            server_->stop();
        server_.reset();
        store_.reset();
        serverPool_.reset();
        served_ = false;
    }

    bool
    setupOnce()
    {
        teardown();
        Timed setup(nullptr, "setup");
        {
            Timed generate(recorder_.get(), "workloads.generate");
            trace_ = mt::workloads::makeDeviceTrace(
                workload_.trace, workload_.requests, options_.seed);
            generateSeconds_.push_back(generate.stop());
        }
        // The client thread and the event loop take one core each; the
        // server's synthesis pool gets the rest.
        const unsigned cores =
            std::max(1u, std::thread::hardware_concurrency());
        serverPool_ = std::make_unique<mt::util::ThreadPool>(
            cores > 2 ? cores - 2 : 1);
        store_ = std::make_unique<mt::serve::ProfileStore>();
        if (workload_.profileInSetup) {
            store_->insert(kProfileId,
                           mt::core::buildProfile(
                               trace_, config_,
                               mt::core::LeafModelerHooks{},
                               options_.threads));
            served_ = true;
        }
        mt::serve::ServerOptions server_options;
        server_options.pool = serverPool_.get();
        server_ = std::make_unique<mt::serve::StreamServer>(
            *store_, server_options);
        std::string error;
        if (!tally_.check(server_->start(&error),
                          "server start: " + error))
            return false;
        client_ = std::make_unique<mt::serve::MuxClient>();
        if (!tally_.check(client_->connect("127.0.0.1", server_->port(),
                                           {}, &error),
                          "client connect: " + error))
            return false;
        if (served_) {
            // Warm-up: one chunk through the whole serve path.
            FetchPlan plan{kProfileId, {options_.seed}, kChunkRequests,
                           1, 1};
            const FetchResult warm =
                fetchClosedLoop(*client_, plan, nextChannel_);
            if (!tally_.check(warm.ok, "warm-up fetch: " + warm.error))
                return false;
        }
        setupSeconds_.push_back(setup.stop());
        return true;
    }

    Options options_;
    const Workload &workload_;
    const mt::core::PartitionConfig config_;
    std::unique_ptr<SpanRecorder> recorder_;
    Tally tally_;
    bool completed_ = false;

    mt::mem::Trace trace_;
    std::unique_ptr<mt::util::ThreadPool> serverPool_;
    std::unique_ptr<mt::serve::ProfileStore> store_;
    std::unique_ptr<mt::serve::StreamServer> server_;
    std::unique_ptr<mt::serve::MuxClient> client_;
    std::uint64_t nextChannel_ = 1;
    bool served_ = false;

    /// Outputs of each stage's first call; each feeds the next stage.
    std::vector<std::uint8_t> bytes_;
    mt::core::Profile profile_;
    mt::mem::Trace synthetic_;
    mt::validation::ValidationReport full_;
    mt::sampling::SampledValidationReport sampled_;
    std::vector<std::vector<mt::mem::Request>> streams_;

    std::vector<double> setupSeconds_;
    std::vector<double> generateSeconds_;
    std::map<std::string, StageSamples> stages_;
    std::map<std::string, std::vector<double>> layerSamples_;
    /// Per timed fetch: throughput and chunk-latency percentiles. Each
    /// fetch has >= 2,048 chunks, so its p99 has >= 20 samples beyond
    /// it; the median over fetches discounts one disturbed fetch.
    std::vector<double> fetchRates_;
    std::vector<double> chunkP50Ms_;
    std::vector<double> chunkP99Ms_;
    std::size_t chunkSamples_ = 0;
    /** Per-layer values measured once per run (the sharding probe). */
    std::map<std::string, double> once_;
};

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "perf_pipeline: %s\n"
                 "usage: perf_pipeline --workload <dpu-fbc|vpu-hevc|"
                 "serve-mux> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <path>]\n",
                 message);
    return 2;
}

bool
parseOptions(int argc, char **argv, Options &options)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload") {
            for (const Workload &w : kWorkloads)
                if (std::strcmp(w.name, value) == 0)
                    options.workload = &w;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value, nullptr);
        } else if (flag == "--trace") {
            options.trace = std::strcmp(value, "1") == 0;
        } else if (flag == "--spans-out") {
            options.spansOut = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && options.workload != nullptr &&
           options.seconds > 0.0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options options;
    if (!parseOptions(argc, argv, options))
        return usage("bad arguments");
    if (!kOptimized)
        return usage("refusing to report from a build without "
                     "optimisation");

    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    options.threads = std::min(kMaxThreads, cores);
    mt::util::ThreadPool::setGlobalThreadCount(options.threads);

    char host[256] = "unknown";
    gethostname(host, sizeof(host) - 1);
#if defined(__clang__)
    const char *compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const char *compiler = "gcc " __VERSION__;
#else
    const char *compiler = "unknown";
#endif
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "host=%s nproc=%u compiler=\"%s\" build=%s threads=%u\n",
                options.workload->name,
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, host, cores,
                compiler, PERFBENCH_BUILD_TYPE, options.threads);

    Bench bench(options);
    if (bench.setup())
        bench.run();
    bench.report();
    return 0;
}
