/**
 * @file
 * The repository benchmark program. It runs one workload — `suite` or
 * `sweep` — through the same public entry points the tools use
 * (core::runSweep, core::mergeCheckpoints, core::sensitivityReport,
 * the analysis functions and core::processRequest) for a fixed
 * measuring time, checks the outputs, and prints one line
 *
 *   RESULT {"workload":...,"metrics":{...},"counts":{...},...}
 *
 * for perfbench/run.py, which adds host facts, compares the exact
 * counts against perfbench/reference.json and prints the final result.
 *
 * Usage:
 *   cactus_perfbench --workload suite|sweep --seconds S --trace 0|1
 *                    --goldens PATH --workdir DIR [--t0 SECONDS]
 *
 * All times are host time. With --trace 0 the program reports the
 * end-to-end metrics. With --trace 1 it alternates untraced and traced
 * passes and reports the per-layer metrics of
 * the traced ones: spans recorded from here, around the calls into
 * each layer, and written to DIR/spans-<workload>.jsonl at exit.
 * --t0 is the caller's CLOCK_MONOTONIC time at spawn, so set-up time
 * counts from process entry.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/famd.hh"
#include "analysis/hcluster.hh"
#include "analysis/pearson.hh"
#include "analysis/roofline.hh"
#include "common/error.hh"
#include "common/json.hh"
#include "common/parse.hh"
#include "core/benchmark.hh"
#include "core/campaign.hh"
#include "core/harness.hh"
#include "core/serve.hh"
#include "core/sweep.hh"
#include "core/verify.hh"
#include "gpu/device.hh"
#include "gpu/digest.hh"

namespace {

using namespace cactus;
using Clock = std::chrono::steady_clock;

/** Steady-clock seconds; the same clock as Python's time.monotonic(). */
double
now()
{
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, as cactus_load reports it. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw ConfigError("cannot read '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

double
peakRssMib()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Calls of the short read path (analysis; merge plus report) per
 *  pass, so its per-layer times are medians, not single samples. */
constexpr int kReadRepeats = 5;

struct Options
{
    std::string workload;
    double seconds = 10;
    bool trace = false;
    std::string goldens;
    std::string workdir;
    double t0 = -1; ///< Spawn time on the steady clock; <0 = entry.
};

// --- Spans -----------------------------------------------------------

/** One traced interval. Spans of one task or request share an id. */
struct Span
{
    std::string name; ///< "<layer>.<what>", e.g. "gpu.launch".
    std::string id;
    double start = 0;
    double end = 0;
    int parent = -1;
};

/** The layer a span belongs to: its name up to the last dot. */
std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.rfind('.'));
}

/**
 * In-memory span log, written out at exit. Disabled tracers record
 * nothing, so untraced passes pay one branch per call site.
 */
class Tracer
{
  public:
    bool enabled = false;

    int
    add(std::string name, std::string id, double start, double end,
        int parent)
    {
        if (!enabled)
            return -1;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(
            {std::move(name), std::move(id), start, end, parent});
        return static_cast<int>(spans_.size()) - 1;
    }

    int open(std::string name, int parent = -1)
    {
        return add(std::move(name), "", now(), 0, parent);
    }

    void
    close(int idx)
    {
        if (idx < 0)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(idx)].end = now();
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

    /**
     * Self time per layer over the spans [from, size()): each span's
     * duration minus the part of it that its children cover (children
     * of one parent may overlap — concurrent requests — so their
     * union is subtracted, not their sum).
     */
    std::map<std::string, double>
    selfTimes(std::size_t from) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::unordered_map<int, std::vector<std::pair<double, double>>>
            children;
        for (std::size_t i = from; i < spans_.size(); ++i)
            if (spans_[i].parent >= 0)
                children[spans_[i].parent].emplace_back(
                    spans_[i].start, spans_[i].end);
        std::map<std::string, double> self;
        for (std::size_t i = from; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            double covered = 0;
            auto it = children.find(static_cast<int>(i));
            if (it != children.end()) {
                auto &iv = it->second;
                std::sort(iv.begin(), iv.end());
                double lo = s.start, hi = s.start;
                for (auto [a, b] : iv) {
                    a = std::clamp(a, s.start, s.end);
                    b = std::clamp(b, s.start, s.end);
                    if (a > hi) {
                        covered += hi - lo;
                        lo = a;
                        hi = b;
                    } else {
                        hi = std::max(hi, b);
                    }
                }
                covered += hi - lo;
            }
            self[layerOf(s.name)] += (s.end - s.start) - covered;
        }
        return self;
    }

    void
    write(const std::string &path, double origin) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::ofstream out(path);
        if (!out)
            throw ConfigError("cannot write spans to '" + path + "'");
        char buf[96];
        for (const Span &s : spans_) {
            std::snprintf(buf, sizeof buf,
                          ",\"start\":%.9f,\"end\":%.9f,\"parent\":%d}",
                          s.start - origin, s.end - origin, s.parent);
            out << "{\"name\":\"" << jsonEscape(s.name)
                << "\",\"id\":\"" << jsonEscape(s.id) << "\"" << buf
                << '\n';
        }
    }

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

// --- Result accumulation ---------------------------------------------

/** What one pass measured. */
struct Pass
{
    bool traced = false;
    double wall = 0;
    std::map<std::string, double> metrics; ///< This pass's values.
    std::map<std::string, std::string> counts; ///< Exact-repeat set.
    /** Suite and sweep: wall seconds of each execution (one benchmark,
     *  or one shared-trace group), by group key. */
    std::map<std::string, double> executions;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Everything the program reports for one run. */
struct Report
{
    std::string workload;
    double setupSeconds = 0;
    std::vector<Pass> passes;
    std::map<std::string, std::string> counts;
    std::vector<std::string> failures;
    std::map<std::string, double> metrics;
    std::map<std::string, double> direct; ///< serveDirect() values.

    void
    fail(std::string what)
    {
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                     what.c_str());
        failures.push_back(std::move(what));
    }

    std::uint64_t
    attempted() const
    {
        std::uint64_t n = 0;
        for (const auto &p : passes)
            n += p.attempted;
        return n;
    }

    std::uint64_t
    failed() const
    {
        std::uint64_t n = 0;
        for (const auto &p : passes)
            n += p.failed;
        return n;
    }

    /** Merge a pass's exact counts, failing on any change. */
    void
    mergeCounts(const std::map<std::string, std::string> &c)
    {
        for (const auto &[k, v] : c) {
            auto [it, inserted] = counts.emplace(k, v);
            if (!inserted && it->second != v)
                fail("exact-repeat count " + k + " changed between "
                     "passes: " + it->second + " vs " + v);
        }
    }
};

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

/** Median of a per-pass metric over the traced passes. */
double
tracedMedian(const std::vector<Pass> &passes, const std::string &name)
{
    std::vector<double> v;
    for (const auto &p : passes)
        if (p.traced) {
            auto it = p.metrics.find(name);
            if (it != p.metrics.end())
                v.push_back(it->second);
        }
    return median(v);
}

// --- Campaign observation (suite and sweep) --------------------------

/**
 * Turns runSweep's per-entry callbacks and the launch-boundary hook
 * into spans and per-execution latencies. The hook fires at every
 * kernel launch's start, so launch k's interval runs to launch k+1's
 * start (the last one to the execution's end): workload host code
 * between launches is counted as part of the launch before it.
 */
class CampaignObserver
{
  public:
    /** Shared-trace groups are keyed as runSweep keys them; in the
     *  suite every benchmark is a group of its own. */
    CampaignObserver(Tracer &tracer,
                     const std::vector<core::CampaignTask> &tasks)
        : tracer_(tracer)
    {
        for (const auto &t : tasks)
            groupOf_[core::sweepTaskId(t.info.name, "tiny", t.config)] =
                core::sweepGroupKey(t.info.name, "tiny", t.config);
    }

    /** Spans of the executions hang under @p span. */
    void setParent(int span) { parent_ = span; }

    /** Install the launch hook on @p cfg (traced passes only). */
    void
    hook(gpu::DeviceConfig &cfg)
    {
        cfg.onLaunchBoundary = [this] { marks_.push_back(now()); };
    }

    void
    onEntry(const core::CampaignEntry &entry)
    {
        const double end = now();
        const std::string &group = groupOf_.at(entry.taskId);
        if (!seen_.insert(group).second)
            return; // Settled by its group's shared execution.
        const double start = end - entry.wallSeconds;
        executions[group] = entry.wallSeconds;
        const std::size_t n = marks_.size() - consumed_;
        if (tracer_.enabled) {
            if (n != entry.profile.launches)
                mismatches.push_back(
                    entry.name + ": " + u64(n) + " launch boundaries "
                    "vs " + u64(entry.profile.launches) + " launches");
            const int task = tracer_.add("workloads.task", entry.taskId,
                                         start, end, parent_);
            for (std::size_t k = 0; k < n; ++k) {
                const double a = marks_[consumed_ + k];
                const double b =
                    k + 1 < n ? marks_[consumed_ + k + 1] : end;
                launchSeconds.push_back(b - a);
                tracer_.add("gpu.launch", entry.taskId, a, b, task);
            }
        }
        consumed_ = marks_.size();
        byBench[entry.name] += entry.wallSeconds;
        suiteOf[entry.name] = entry.profile.suite;
    }

    std::map<std::string, double> executions; ///< Wall s by group.
    std::vector<double> launchSeconds; ///< Traced launch intervals.
    std::vector<std::string> mismatches;
    std::map<std::string, double> byBench;
    std::map<std::string, std::string> suiteOf;

  private:
    Tracer &tracer_;
    int parent_ = -1;
    std::unordered_map<std::string, std::string> groupOf_;
    std::set<std::string> seen_;
    std::vector<double> marks_;
    std::size_t consumed_ = 0;
};

/** Simulated-statistics totals over a campaign's completed entries. */
std::map<std::string, std::string>
gpuCounts(const core::CampaignResult &result)
{
    std::uint64_t launches = 0, warp = 0, l1 = 0, l2 = 0, dram = 0;
    for (const auto &e : result.entries) {
        launches += e.profile.launches;
        warp += e.profile.totalWarpInsts;
        dram += e.profile.totalDramSectors;
        for (const auto &k : e.profile.kernels) {
            l1 += k.l1Accesses;
            l2 += k.l2Accesses;
        }
    }
    return {{"gpu.launches", u64(launches)},
            {"gpu.warp_insts", u64(warp)},
            {"gpu.l1_sectors", u64(l1)},
            {"gpu.l2_sectors", u64(l2)},
            {"gpu.dram_sectors", u64(dram)}};
}

/**
 * Run @p tasks through core::runSweep at tiny scale under @p obs (the
 * launch hook goes on traced passes only), check that every task
 * completed OK, and record the campaign metrics into @p pass.
 */
core::CampaignResult
runObserved(std::vector<core::CampaignTask> tasks,
            core::CampaignOptions opts, CampaignObserver &obs,
            Tracer &tracer, int parent, Pass &pass, Report &report)
{
    if (tracer.enabled)
        for (auto &t : tasks)
            obs.hook(t.config);
    opts.scale = core::Scale::Tiny;
    opts.onEntry = [&obs](const core::CampaignEntry &e) {
        obs.onEntry(e);
    };
    const int span = tracer.open("core.campaign.sweep", parent);
    obs.setParent(span);
    const double c0 = now();
    auto r = core::runSweep(tasks, opts);
    const double campaignWall = now() - c0;
    tracer.close(span);

    if (r.okCount != static_cast<int>(tasks.size()))
        report.fail("campaign: " + std::to_string(r.okCount) + " of " +
                    u64(tasks.size()) + " tasks OK (" +
                    std::to_string(r.failedCount) + " failed, " +
                    std::to_string(r.timeoutCount) + " timeout, " +
                    std::to_string(r.corruptCount) + " corrupt)");
    for (const auto &m : obs.mismatches)
        report.fail("launch pairing: " + m);
    pass.attempted += r.entries.size();
    pass.failed += static_cast<std::uint64_t>(
        r.failedCount + r.timeoutCount + r.corruptCount);
    pass.counts = gpuCounts(r);
    pass.executions = obs.executions;
    double taskSeconds = 0;
    for (const auto &[group, secs] : obs.executions)
        taskSeconds += secs;
    auto &m = pass.metrics;
    m["core.campaign.tasks"] = static_cast<double>(r.entries.size());
    m["core.campaign.ok"] = r.okCount;
    m["core.campaign.failed"] = r.failedCount + r.timeoutCount;
    m["core.campaign.corrupt"] = r.corruptCount;
    m["core.campaign.task_s"] = taskSeconds;
    m["core.campaign.overhead_s"] = campaignWall - taskSeconds;
    for (const auto &[k, v] : pass.counts)
        m[k] = std::stod(v);
    if (!obs.launchSeconds.empty()) {
        m["gpu.launch_s"] = sum(obs.launchSeconds);
        m["gpu.launch_p50_us"] =
            1e6 * percentile(obs.launchSeconds, 0.50);
        m["gpu.launch_p99_us"] =
            1e6 * percentile(obs.launchSeconds, 0.99);
    }
    return r;
}

// --- suite -----------------------------------------------------------

struct SuiteState
{
    core::GoldenTable goldens;
    std::vector<core::CampaignTask> tasks; ///< Registry order.
    std::vector<std::string> names;
    gpu::DeviceConfig cfg;
};

SuiteState
setupSuite(const Options &opt)
{
    SuiteState s;
    s.goldens = core::GoldenTable::load(opt.goldens);
    s.cfg = gpu::DeviceConfig::scaledExperiment();
    s.cfg.hostThreads = 1;
    for (const auto *info : core::Registry::instance().list()) {
        s.tasks.push_back({*info, s.cfg, ""});
        s.names.push_back(info->name);
    }
    return s;
}

/**
 * The paper's Figs 4-9 pipeline over the suite's profiles: roofline
 * classification of every kernel, the metric correlation matrix, FAMD
 * and Ward clustering of the dominant kernels. Returns a digest of
 * the labels it produced (an exact-repeat check).
 */
std::uint64_t
runAnalysis(const std::vector<core::BenchmarkProfile> &profiles,
            const gpu::DeviceConfig &cfg, Tracer &tracer, int parent,
            Pass &pass)
{
    auto &m = pass.metrics;
    std::uint64_t digest = gpu::kFnvOffset;
    double t = now();
    const auto lap = [&](const char *name, const char *metric) {
        const double t1 = now();
        tracer.add(name, "", t, t1, parent);
        m[metric] += (t1 - t) / kReadRepeats;
        t = t1;
    };

    const analysis::Roofline roof(cfg);
    for (const auto &p : profiles)
        for (const auto &k : p.kernels) {
            const auto pt = roof.makePoint(k.name, k.metrics.instIntensity,
                                           k.metrics.gips);
            digest = gpu::fnv1a(digest,
                                static_cast<std::uint64_t>(
                                    pt.intensityClass) * 2 +
                                    static_cast<std::uint64_t>(
                                        pt.boundClass));
        }
    lap("analysis.roofline", "analysis.roofline_s");

    const auto obs = core::dominantKernelObservations(profiles, 0.70);
    const std::size_t n = obs.size();
    const int cols = gpu::KernelMetrics::kNumColumns;
    analysis::Matrix samples(n, cols);
    for (std::size_t i = 0; i < n; ++i) {
        const auto row = obs[i].metrics.toVector();
        for (int j = 0; j < cols; ++j) {
            const std::string col = gpu::KernelMetrics::columnName(j);
            const bool log = col == "gips" || col == "inst_intensity" ||
                col == "dram_read_bps";
            samples(i, static_cast<std::size_t>(j)) =
                log ? std::log10(std::max(row[j], 1e-3)) : row[j];
        }
    }
    const auto corr = analysis::correlationMatrix(samples);
    for (std::size_t i = 0; i < corr.rows(); ++i)
        for (std::size_t j = 0; j < corr.cols(); ++j)
            digest = gpu::fnv1a(
                digest, static_cast<std::uint64_t>(
                            analysis::classifyCorrelation(corr(i, j))));
    lap("analysis.correlation", "analysis.correlation_s");

    const auto famd =
        analysis::famd(core::buildMixedData(obs, cfg), 10);
    const std::size_t keep = analysis::componentsForVariance(famd, 0.90);
    lap("analysis.famd", "analysis.famd_s");

    analysis::Matrix coords(famd.coordinates.rows(), keep);
    for (std::size_t i = 0; i < coords.rows(); ++i)
        for (std::size_t j = 0; j < keep; ++j)
            coords(i, j) = famd.coordinates(i, j);
    const auto labels =
        analysis::cutTree(analysis::wardLinkage(coords), 6);
    for (int l : labels)
        digest = gpu::fnv1a(digest, static_cast<std::uint64_t>(l));
    lap("analysis.cluster", "analysis.cluster_s");

    m["analysis.kernels"] = static_cast<double>(n);
    pass.counts["analysis.kernels"] = u64(n);
    pass.counts["analysis.components"] = u64(keep);
    return digest;
}

/** Sampled warps per launch from dev.launches(), one fresh Device per
 *  benchmark (an untimed pass: runSweep does not expose LaunchStats). */
std::uint64_t
countSampledWarps(const std::vector<std::string> &names,
                  const gpu::DeviceConfig &cfg)
{
    std::uint64_t sampled = 0;
    for (const auto &name : names) {
        auto bench = core::Registry::instance().create(name,
                                                       core::Scale::Tiny);
        gpu::Device dev(cfg);
        bench->run(dev);
        for (const auto &l : dev.launches())
            sampled += l.sampledWarps;
    }
    return sampled;
}

Pass
suitePass(SuiteState &s, Tracer &tracer, Report &report)
{
    Pass pass;
    pass.traced = tracer.enabled;
    const double t0 = now();
    const int root = tracer.open("perfbench.suite_pass");

    CampaignObserver obs(tracer, s.tasks);
    core::CampaignOptions opts;
    opts.verifyOutputs = true;
    opts.goldens = &s.goldens;
    auto result =
        runObserved(s.tasks, opts, obs, tracer, root, pass, report);
    if (!report.failures.empty()) {
        tracer.close(root);
        pass.wall = now() - t0;
        return pass; // No complete profile set to analyse.
    }

    std::vector<core::BenchmarkProfile> profiles;
    std::uint64_t checked = 0;
    for (auto &e : result.entries) {
        checked += e.hasOutputDigest;
        profiles.push_back(std::move(e.profile));
    }
    for (int i = 0; i < kReadRepeats; ++i) {
        const std::uint64_t digest =
            runAnalysis(profiles, s.cfg, tracer, root, pass);
        const auto [it, first] =
            pass.counts.emplace("analysis.digest", gpu::hex16(digest));
        if (!first && it->second != gpu::hex16(digest))
            report.fail("analysis: repeated call gave another digest");
    }

    tracer.close(root);
    pass.wall = now() - t0;

    auto &m = pass.metrics;
    m["core.verify.checked"] = static_cast<double>(checked);
    m["core.verify.mismatches"] = result.corruptCount;
    if (checked != s.names.size())
        report.fail("verify: " + u64(checked) + " of " +
                    u64(s.names.size()) +
                    " benchmarks checked against the goldens");
    for (const char *suite :
         {"Cactus", "CactusExt", "Parboil", "Rodinia", "Tango"}) {
        std::string key = "workloads.";
        for (const char *c = suite; *c; ++c)
            key += static_cast<char>(std::tolower(*c));
        m[key + "_s"] = 0;
    }
    for (const auto &[bench, secs] : obs.byBench) {
        std::string key = "workloads.";
        for (char c : obs.suiteOf.at(bench))
            key += static_cast<char>(std::tolower(c));
        m[key + "_s"] += secs;
    }
    m["workloads.lbm_s"] = obs.byBench["lbm"];
    m["workloads.spmv_s"] = obs.byBench["spmv"];
    return pass;
}

// --- sweep -----------------------------------------------------------

struct SweepState
{
    std::vector<core::CampaignTask> tasks; ///< Benchmark-major.
    std::vector<std::string> names;        ///< Registry order.
    std::vector<core::SweepAxis> axes;
    gpu::DeviceConfig base;
    std::string checkpoint, merged;
};

SweepState
setupSweep(const Options &opt)
{
    SweepState s;
    s.base = gpu::DeviceConfig::scaledExperiment();
    s.base.hostThreads = 2;
    s.axes = {core::parseSweepAxis("l1_kb=32,64,128,256")};
    const auto points = core::expandSweep(s.base, s.axes);
    for (const auto *info : core::Registry::instance().list("Cactus")) {
        s.names.push_back(info->name);
        for (const auto &p : points)
            s.tasks.push_back({*info, p.config, p.label});
    }
    s.checkpoint = opt.workdir + "/sweep-checkpoint.jsonl";
    s.merged = opt.workdir + "/sweep-merged.jsonl";
    return s;
}

Pass
sweepPass(SweepState &s, Tracer &tracer, Report &report)
{
    Pass pass;
    pass.traced = tracer.enabled;
    std::filesystem::remove(s.checkpoint);
    std::filesystem::remove(s.merged);
    const double t0 = now();
    const int root = tracer.open("perfbench.sweep_pass");

    CampaignObserver obs(tracer, s.tasks);
    core::CampaignOptions opts;
    opts.checkpointPath = s.checkpoint;
    runObserved(s.tasks, opts, obs, tracer, root, pass, report);

    // The read path is short, so it runs several times per pass.
    core::MergeResult mr;
    std::string text;
    std::vector<double> merges, reports;
    for (int i = 0; i < kReadRepeats; ++i) {
        const double r0 = now();
        mr = core::mergeCheckpoints({s.checkpoint}, s.merged);
        const double r1 = now();
        text = core::sensitivityReport(s.names, "tiny", s.base,
                                       s.axes, s.merged);
        const double r2 = now();
        tracer.add("core.sweep.merge", "", r0, r1, root);
        tracer.add("core.sweep.report", "", r1, r2, root);
        merges.push_back(r1 - r0);
        reports.push_back(r2 - r1);
    }
    tracer.close(root);
    pass.wall = now() - t0;

    if (!mr.clean() || mr.tasks != s.tasks.size() ||
        mr.missingInputs != 0)
        report.fail("merge: " + u64(mr.tasks) + " tasks, " +
                    u64(mr.corruptTasks.size()) + " corrupt, " +
                    u64(mr.missingInputs) + " missing inputs");
    auto &m = pass.metrics;
    m["core.sweep.merge_s"] = median(merges);
    m["core.sweep.report_s"] = median(reports);
    m["core.sweep.groups"] = static_cast<double>(obs.executions.size());
    m["core.sweep.tasks_per_group"] =
        static_cast<double>(s.tasks.size()) /
        static_cast<double>(obs.executions.size());
    const auto bytes = std::filesystem::file_size(s.checkpoint);
    m["core.campaign.checkpoint_bytes"] = static_cast<double>(bytes);
    pass.counts["core.campaign.checkpoint_bytes"] = u64(bytes);
    pass.counts["core.sweep.groups"] = u64(obs.executions.size());
    pass.counts["core.sweep.merged_digest"] =
        gpu::hex16(gpu::fnv1aBytes(readFile(s.merged)));
    pass.counts["core.sweep.report_digest"] =
        gpu::hex16(gpu::fnv1aBytes(text));
    return pass;
}

// --- core.serve, without the socket ---------------------------------

/** The 8 cheap benchmarks whose configs serveDirect() requests. */
const char *const kServeBenches[] = {"GST",     "SSP",   "TRF",
                                     "histo",   "mri_q", "stencil",
                                     "pb_bfs",  "btree"};
constexpr int kServeConfigs = 64;
constexpr int kServeCacheCapacity = 16;

/** Request line of config @p r: benchmark r % 8, l2_kb by r / 8. */
std::string
serveLine(int r)
{
    return std::string("{\"bench\":\"") + kServeBenches[r % 8] +
        "\",\"scale\":\"tiny\",\"l2_kb\":" +
        std::to_string(256 + 128 * (r / 8)) + "}";
}

/** The "result":{...} payload of a response: the cached bytes. */
bool
resultBody(const std::string &response, std::string &body)
{
    const std::size_t at = response.find("\"result\":");
    if (at == std::string::npos || response.back() != '}')
        return false;
    body = response.substr(at + 9, response.size() - (at + 9) - 1);
    return true;
}

/**
 * processRequest without the socket: median latency of hits on a warm
 * ResultCache and of misses on a cold one, so the core.serve layer is
 * measured on a workload the benchmark gates (traced sweep runs).
 * Every body must equal the first one computed for its config, whether
 * it was computed again or served from the cache; the bodies of all 64
 * configs are digested in order (an exact-repeat check on the model).
 */
void
serveDirect(Report &rep, Tracer &tracer)
{
    const core::RequestContext ctx;
    std::vector<double> hit, miss;
    std::vector<std::string> first(kServeConfigs);
    std::uint64_t digest = gpu::kFnvOffset;
    // Times one request; on a bad response records the failure and
    // returns false.
    const auto timed = [&](core::ResultCache &cache, int r,
                           const std::string &want,
                           std::vector<double> &into) {
        const std::string line = serveLine(r);
        const double t0 = now();
        const auto out = core::processRequest(line, cache, ctx);
        const double t1 = now();
        tracer.add("core.serve.process", std::to_string(r), t0, t1, -1);
        std::string source, body;
        if (out.error || !jsonFindText(out.response, "source", source) ||
            source != want || !resultBody(out.response, body)) {
            rep.fail("serve: processRequest(" + line + ") expected " +
                     want + ", got " + out.response.substr(0, 120));
            return false;
        }
        auto &expected = first[static_cast<std::size_t>(r)];
        if (expected.empty()) {
            expected = body;
            digest = gpu::fnv1aBytes(body, digest);
        } else if (body != expected) {
            rep.fail("serve: " + want + " body of " + line +
                     " differs from the first one computed");
            return false;
        }
        into.push_back(t1 - t0);
        return true;
    };
    core::ResultCache cold(1);
    for (int round = 0; round < 2; ++round)
        for (int r = 0; r < kServeConfigs; ++r)
            if (!timed(cold, r, "computed", miss))
                return;
    core::ResultCache warm(kServeCacheCapacity);
    std::vector<double> ignored;
    for (int r = 0; r < kServeCacheCapacity; ++r)
        if (!timed(warm, r, "computed", ignored))
            return;
    for (int round = 0; round < 200; ++round)
        for (int r = 0; r < kServeCacheCapacity; ++r)
            if (!timed(warm, r, "cache", hit))
                return;
    rep.direct["core.serve.process_hit_us"] = 1e6 * median(hit);
    rep.direct["core.serve.process_miss_ms"] = 1e3 * median(miss);
    rep.mergeCounts({{"core.serve.bodies_digest", gpu::hex16(digest)}});
}

// --- Reporting and main ---------------------------------------------

/** Every per-pass per-layer metric name; workloads that do not
 *  exercise a layer report 0 for it. */
const char *const kLayerMetrics[] = {
    "gpu.launches", "gpu.warp_insts", "gpu.sampled_warps",
    "gpu.l1_sectors", "gpu.l2_sectors", "gpu.dram_sectors",
    "gpu.launch_s", "gpu.launch_p50_us", "gpu.launch_p99_us",
    "gpu.ns_per_sampled_warp", "gpu.ns_per_l1_sector",
    "workloads.cactus_s", "workloads.cactusext_s", "workloads.parboil_s",
    "workloads.rodinia_s", "workloads.tango_s", "workloads.lbm_s",
    "workloads.spmv_s", "core.campaign.tasks", "core.campaign.ok",
    "core.campaign.failed", "core.campaign.corrupt",
    "core.campaign.task_s", "core.campaign.overhead_s",
    "core.campaign.checkpoint_bytes", "core.sweep.groups",
    "core.sweep.tasks_per_group", "core.sweep.merge_s",
    "core.sweep.report_s", "core.verify.checked",
    "core.verify.mismatches", "analysis.roofline_s",
    "analysis.correlation_s", "analysis.famd_s", "analysis.cluster_s",
    "analysis.kernels", "core.serve.process_hit_us",
    "core.serve.process_miss_ms"};

/** Layers whose self time is reported as <layer>.self_s. */
const char *const kLayers[] = {"gpu",        "workloads",
                               "core.campaign", "core.sweep",
                               "analysis",   "perfbench"};

/** End-to-end metrics of a finished untraced run. */
void
finishEndToEnd(Report &rep)
{
    // Suite and sweep executions are few and of very different sizes,
    // so each one's median over the passes enters the percentile.
    std::map<std::string, std::vector<double>> byExecution;
    std::vector<double> sims, walls;
    for (const auto &p : rep.passes) {
        for (const auto &[group, secs] : p.executions)
            byExecution[group].push_back(secs);
        walls.push_back(p.wall);
    }
    for (const auto &[group, v] : byExecution)
        sims.push_back(median(v));
    auto &m = rep.metrics;
    m["sim_p50_ms"] = 1e3 * percentile(sims, 0.50);
    m["run_s"] = median(walls);
}

/** Per-layer metrics of a finished traced run. */
void
finishPerLayer(Report &rep, const std::map<std::string, double> &self)
{
    auto &m = rep.metrics;
    for (const char *name : kLayerMetrics)
        m[name] = tracedMedian(rep.passes, name);
    for (const auto &[name, value] : rep.direct)
        m[name] = value;
    for (const char *layer : kLayers) {
        auto it = self.find(layer);
        m[std::string(layer) + ".self_s"] =
            it == self.end() ? 0.0 : it->second;
    }
    const std::string &w = rep.workload;
    const auto count = [&](const char *k) {
        auto it = rep.counts.find(k);
        return it == rep.counts.end() ? 0.0 : std::stod(it->second);
    };
    m["gpu.sampled_warps"] = count("gpu.sampled_warps");
    m["failed_frac"] = rep.attempted() > 0
        ? static_cast<double>(rep.failed()) /
            static_cast<double>(rep.attempted())
        : 0;
    if (w == "suite" && m["gpu.sampled_warps"] > 0)
        m["gpu.ns_per_sampled_warp"] =
            1e9 * m["gpu.launch_s"] / m["gpu.sampled_warps"];
    if (w == "sweep" && m["gpu.l1_sectors"] > 0)
        m["gpu.ns_per_l1_sector"] =
            1e9 * m["gpu.launch_s"] / m["gpu.l1_sectors"];
    // Traced against untraced pass time of the same run.
    std::vector<double> u, t;
    for (const auto &p : rep.passes) {
        (p.traced ? t : u).push_back(p.wall);
    }
    m["trace.overhead_frac"] = median(t) / median(u) - 1;
}

void
printSelfTimes(const std::map<std::string, double> &self, int passes)
{
    std::fprintf(stderr,
                 "perfbench: self time per layer, median per traced "
                 "pass over %d pass(es). Launch intervals run from one "
                 "launch boundary to the next, so workload host code "
                 "between launches counts as gpu time.\n",
                 passes);
    for (const auto &[layer, secs] : self)
        std::fprintf(stderr, "  %-16s %10.4f s\n", layer.c_str(), secs);
}

std::string
fmtNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printResult(const Report &rep)
{
    std::string out = "RESULT {\"workload\":\"" + rep.workload + "\"";
    out += ",\"setup_s\":" + fmtNumber(rep.setupSeconds);
    out += ",\"peak_rss_mib\":" + fmtNumber(peakRssMib());
    out += ",\"passes\":" + std::to_string(rep.passes.size());
    out += ",\"attempted\":" + u64(rep.attempted());
    out += ",\"failed\":" + u64(rep.failed());
    out += ",\"scale\":\"tiny\",\"config_digest\":\"" +
        gpu::hex16(gpu::DeviceConfig::scaledExperiment().digest()) + "\"";
    out += ",\"failures\":[";
    for (std::size_t i = 0; i < rep.failures.size(); ++i)
        out += (i ? ",\"" : "\"") + jsonEscape(rep.failures[i]) + "\"";
    out += "],\"metrics\":{";
    bool first = true;
    for (const auto &[k, v] : rep.metrics) {
        out += (first ? "\"" : ",\"") + k + "\":" + fmtNumber(v);
        first = false;
    }
    out += "},\"counts\":{";
    first = true;
    for (const auto &[k, v] : rep.counts) {
        out += (first ? "\"" : ",\"") + k + "\":\"" + v + "\"";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

/**
 * Run passes until the measuring time is spent (at least one; with
 * tracing, alternating untraced and traced, at least one of each).
 * Returns the self time per layer over the traced passes.
 */
std::map<std::string, double>
measure(const Options &opt, Tracer &tracer, Report &rep,
        const std::function<Pass()> &pass)
{
    std::map<std::string, std::vector<double>> selfByPass;
    const double end = now() + opt.seconds;
    // Stop when the next pass would end more than half a pass late, so
    // a run measures for about --seconds whatever the pass length.
    for (int i = 0;; ++i) {
        tracer.enabled = opt.trace && i % 2 == 1;
        const std::size_t from = tracer.size();
        rep.passes.push_back(pass());
        rep.mergeCounts(rep.passes.back().counts);
        if (tracer.enabled)
            for (const auto &[layer, secs] : tracer.selfTimes(from))
                selfByPass[layer].push_back(secs);
        const bool enough = !opt.trace || i >= 1;
        if (!rep.failures.empty() ||
            (enough && now() + rep.passes.back().wall / 2 >= end))
            break;
    }
    tracer.enabled = opt.trace;
    std::map<std::string, double> self;
    for (const auto &[layer, v] : selfByPass)
        self[layer] = median(v);
    return self;
}

int
runMain(int argc, char **argv)
{
    const double entry = now();
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                throw ConfigError("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = next();
        else if (arg == "--seconds")
            opt.seconds = parseDouble(next(), "--seconds");
        else if (arg == "--trace")
            opt.trace = parseNonNegativeInt(next(), "--trace") != 0;
        else if (arg == "--goldens")
            opt.goldens = next();
        else if (arg == "--workdir")
            opt.workdir = next();
        else if (arg == "--t0")
            opt.t0 = parseDouble(next(), "--t0");
        else
            throw ConfigError("unknown argument: " + arg);
    }
    if (opt.workload != "suite" && opt.workload != "sweep")
        throw ConfigError("--workload must be suite or sweep");
    if (opt.goldens.empty() || opt.workdir.empty())
        throw ConfigError("--goldens and --workdir are required");
    const double origin = opt.t0 >= 0 ? opt.t0 : entry;

    Tracer tracer;
    tracer.enabled = opt.trace;
    Report rep;
    rep.workload = opt.workload;
    std::map<std::string, double> self;

    if (opt.workload == "suite") {
        auto s = setupSuite(opt);
        if (s.tasks.size() != 45)
            rep.fail("suite: registry holds " + u64(s.tasks.size()) +
                     " benchmarks, expected 45");
        rep.setupSeconds = now() - origin;
        // The untimed sampled-warp pass also warms the host (heap, page
        // tables) for the untraced/traced comparison.
        if (opt.trace)
            rep.counts["gpu.sampled_warps"] =
                u64(countSampledWarps(s.names, s.cfg));
        self = measure(opt, tracer, rep,
                       [&] { return suitePass(s, tracer, rep); });
    } else {
        auto s = setupSweep(opt);
        rep.setupSeconds = now() - origin;
        // One trace per execution: count it at the group's shared trace
        // config (any of its four points).
        if (opt.trace)
            rep.counts["gpu.sampled_warps"] =
                u64(countSampledWarps(s.names, s.tasks[0].config));
        self = measure(opt, tracer, rep,
                       [&] { return sweepPass(s, tracer, rep); });
        if (opt.trace)
            serveDirect(rep, tracer);
    }

    if (opt.trace) {
        finishPerLayer(rep, self);
        int traced = 0;
        for (const auto &p : rep.passes)
            traced += p.traced;
        printSelfTimes(self, traced);
        tracer.write(opt.workdir + "/spans-" + opt.workload + ".jsonl",
                     origin);
    } else {
        finishEndToEnd(rep);
    }
    printResult(rep);
    return rep.failures.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain([&] { return runMain(argc, argv); });
}
