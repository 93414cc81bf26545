/**
 * @file
 * dth_perfbench: the repository benchmark. Runs one workload for a fixed
 * host-time budget against the public library API, checks every output,
 * and prints its metrics; the last stdout line is one JSON object.
 *
 *   dth_perfbench --workload boot_bnsd|io_z_lossy|campaign_mix
 *                 --seed N --seconds S --trace 0|1 [--trace-dir DIR]
 *
 * --trace 0 prints the end-to-end metrics of untraced runs. --trace 1
 * pairs each untraced session with a traced one (traced_session.h),
 * gates the traced driver against CoSimulator::run, and prints the
 * per-layer metrics; it writes one Chrome trace per workload to DIR.
 * Exit status is 1 when any output is wrong, any deterministic count
 * differs between repetitions, or the traced driver is unfaithful.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "fleet/report.h"
#include "fleet/scheduler.h"
#include "obs/json.h"
#include "riscv/core.h"
#include "traced_session.h"
#include "workloads.h"

namespace {

using namespace dth;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

/** The paper's Table 5 XS/PLDM +Squash speed, for boot_bnsd. */
constexpr double kPaperBnsdKhz = 478.0;
/** Chrome-trace span capacity per traced session (bounds memory). */
constexpr size_t kTraceSpans = size_t(1) << 16;
/** Minimum repetitions, so every deterministic count is seen twice. */
constexpr unsigned kMinReps = 2;
/** Host-speed probe size: dependent loads over a private 8 MiB buffer. */
constexpr size_t kProbeWords = size_t(1) << 20;
constexpr unsigned kProbeSteps = 1'000'000;
/** Probe time of the reference host the end-to-end times are scaled to
 *  (the median on the 4-vCPU machine the baseline was recorded on). */
constexpr double kProbeRefSec = 0.13;
/** Set-ups timed before each repetition; setup_s is the median of all
 *  of them. A set-up takes well under a millisecond, so spreading many
 *  across the run is cheap and samples the host's slow and fast spells
 *  alike. */
constexpr int kSetupsPerRep = 5;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile: the smallest value with at least @p p of
 *  the samples at or below it. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Metrics in print order, plus the run's check tally. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    unsigned long attempted = 0;
    unsigned long failed = 0;
    std::vector<std::string> problems;

    void
    add(const std::string &name, double value, const char *unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** Count one checked operation; @p ok false marks it wrong. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            problems.push_back(what);
        }
    }
    /** A gate that is not an operation (determinism, faithfulness). */
    void
    gate(bool ok, const std::string &what)
    {
        if (!ok)
            problems.push_back(what);
    }
};

/**
 * Host-speed probe. On a shared host the speed of the same code drifts
 * by ±15% in spells of minutes, and the spells follow memory latency:
 * a fixed dependent random walk over a private buffer, timed between
 * repetitions, tracks them. Each repetition's end-to-end host times are
 * reported in reference seconds: measured seconds times kProbeRefSec /
 * the probe time measured just before it. The probe touches nothing of
 * the library, so a change to the library cannot move it.
 */
class HostProbe
{
  public:
    HostProbe() : words_(kProbeWords)
    {
        for (size_t i = 0; i < words_.size(); ++i)
            words_[i] = (i * 0x9E3779B97F4A7C15ull) >> 40;
    }

    /** Time one probe; returns kProbeRefSec / its time, the factor that
     *  turns host seconds measured now into reference seconds. */
    double
    measure()
    {
        Clock::time_point t0 = Clock::now();
        u64 idx = 1, x = 0;
        for (unsigned i = 0; i < kProbeSteps; ++i) {
            idx = (words_[idx & (kProbeWords - 1)] ^ x) + i;
            x = x * 6364136223846793005ull + idx;
        }
        sink_ = x;
        samples_.push_back(since(t0));
        return ratio(kProbeRefSec, samples_.back());
    }

    double medianSec() const { return median(samples_); }

    void
    print(const std::string &name) const
    {
        std::printf("%s: host probe median %.6f s over %zu samples "
                    "(reference %.4f s)\n",
                    name.c_str(), medianSec(), samples_.size(),
                    kProbeRefSec);
    }

  private:
    std::vector<u64> words_;
    std::vector<double> samples_;
    volatile u64 sink_ = 0;
};

/** Peak resident set of the workload: /proc/self/status VmHWM minus the
 *  host probe's buffer, which is touched at start and stays resident.
 *  (getrusage's ru_maxrss also counts the pre-exec image, i.e. the
 *  launcher's memory.) */
double
peakRssMb()
{
    constexpr double kProbeMb =
        kProbeWords * sizeof(u64) / (1024.0 * 1024.0);
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    }
    std::fclose(f);
    return kib / 1024.0 - kProbeMb;
}

/** The REF alone over @p program: a riscv::Soc per core, configured as
 *  the DUT's, stepping to the trap with no DUT, link or checker. */
double
refOnlySec(const workload::Program &program, unsigned cores, u64 seed,
           u64 *instrs)
{
    double sec = 0;
    for (unsigned c = 0; c < cores; ++c) {
        riscv::CoreConfig cc;
        cc.resetPc = program.base;
        cc.autoInterrupts = true;
        cc.rngSeed = seed + 101 * c + 7;
        cc.hartId = c;
        riscv::Soc soc(cc);
        soc.bus.ram().load(program.base, program.image.data(),
                           program.image.size());
        Clock::time_point t0 = Clock::now();
        for (u64 steps = 0; steps < 100'000'000; ++steps) {
            soc.clint.tick();
            if (soc.core.step().halted)
                break;
        }
        sec += since(t0);
        *instrs += soc.core.seqNo();
    }
    return sec;
}

/** Per-layer sums over traced sessions (one rep, or a campaign's jobs). */
struct LayerSums
{
    Ledger ledger;     //!< span totals and wall summed
    double untracedSec = 0;
    u64 instrs = 0;
    u64 cycles = 0;
    u64 runAllocs = 0; //!< untraced run() allocations
    u64 dutEvents = 0;
    u64 checkerEvents = 0;
    u64 transfers = 0;
    u64 bytes = 0;
    u64 validBytes = 0;
    double utilSum = 0;
    u64 utilSamples = 0;
    u64 commitsAbsorbed = 0;
    u64 flushes = 0;
    u64 linkAttempts = 0;
    u64 linkDelivered = 0;
    u64 retransmitBytes = 0;

    void
    add(const Ledger &l, const UntracedRun &u)
    {
        for (size_t i = 0; i < kNumSpans; ++i) {
            ledger.spans[i].ns += l.spans[i].ns;
            ledger.spans[i].calls += l.spans[i].calls;
            ledger.spans[i].allocs += l.spans[i].allocs;
        }
        ledger.wallNs += l.wallNs;
        ledger.allocs += l.allocs;
        const SessionFacts &f = u.facts;
        const obs::StatSnapshot &c = f.counters;
        untracedSec += u.runSec;
        instrs += f.instrs;
        cycles += f.cycles;
        runAllocs += u.runAllocs;
        dutEvents += c.get("dut.events");
        checkerEvents += c.get("checker.events");
        transfers += c.get("pack.transfers");
        bytes += c.get("pack.bytes");
        validBytes += c.get("pack.valid_bytes");
        utilSum += c.getReal("pack.utilization_sum");
        utilSamples += c.get("pack.utilization_samples");
        commitsAbsorbed += c.get("squash.commits_absorbed");
        flushes += c.get("squash.flushes");
        linkAttempts += f.link.frames + f.link.retxFrames;
        linkDelivered += f.link.frames - (f.link.failed() ? 1 : 0);
        retransmitBytes += c.get("replay.retransmit_bytes");
    }
};

/** Fleet-layer observations of one campaign run. */
struct FleetSample
{
    double utilization = 0;
    double queueP50 = 0;
    double queueP75 = 0;
    double reportSec = 0;
    u64 retries = 0;
    u64 steals = 0;
    u64 programsBuilt = 0;
};

/** The per-layer metrics. Times come from one ledger @p s (the fastest
 *  traced session, or the sum over a campaign's jobs), so the layer self
 *  times plus driver self time add up to the reported traced wall. */
void
addLayerMetrics(Report &rep, const LayerSums &s, double gen_s,
                double ref_s, u64 ref_instrs, const FleetSample &fleet)
{
    const Ledger &l = s.ledger;
    auto sec = [&l](Span sp) { return l[sp].ns * 1e-9; };
    const double wall = l.wallNs * 1e-9;
    const double hw =
        sec(Span::DutCycle) + sec(Span::SquashProcess) + sec(Span::Pack);
    const double sw = l.spanNs() * 1e-9 - hw;
    double instrs = static_cast<double>(std::max<u64>(s.instrs, 1));
    auto allocsPerInstr = [&](std::initializer_list<Span> spans) {
        u64 n = 0;
        for (Span sp : spans)
            n += l[sp].allocs;
        return n / instrs;
    };
    rep.add("workload.gen_s", gen_s, "s");
    rep.add("riscv.ref_only_s", ref_s, "s");
    rep.add("cosim.over_ref",
            ratio(s.untracedSec / instrs, ratio(ref_s, ref_instrs)), "x");
    rep.add("dut.busy_s", sec(Span::DutCycle), "s");
    rep.add("dut.events_per_instr", s.dutEvents / instrs, "1/instr");
    rep.add("dut.allocs_per_instr", allocsPerInstr({Span::DutCycle}),
            "1/instr");
    rep.add("squash.busy_s", sec(Span::SquashProcess), "s");
    rep.add("squash.fusion_ratio", ratio(s.commitsAbsorbed, s.flushes),
            "ratio");
    rep.add("squash.complete_busy_s", sec(Span::Complete), "s");
    rep.add("squash.reorder_busy_s", sec(Span::Reorder), "s");
    rep.add("squash.allocs_per_instr",
            allocsPerInstr(
                {Span::SquashProcess, Span::Complete, Span::Reorder}),
            "1/instr");
    rep.add("pack.busy_s", sec(Span::Pack), "s");
    rep.add("pack.unpack_busy_s", sec(Span::Unpack), "s");
    rep.add("pack.transfers", static_cast<double>(s.transfers), "count");
    rep.add("pack.bytes", static_cast<double>(s.bytes), "B");
    // Batch reports valid bytes per packet capacity; per-event
    // transfers carry no padding, so valid bytes per sent byte.
    rep.add("pack.utilization",
            s.utilSamples ? s.utilSum / s.utilSamples
                          : ratio(s.validBytes, s.bytes),
            "ratio");
    rep.add("link.channel_busy_s", sec(Span::LinkChannel), "s");
    rep.add("link.ledger_busy_s", sec(Span::LinkLedger), "s");
    rep.add("link.attempts", static_cast<double>(s.linkAttempts), "count");
    rep.add("link.delivered_ratio",
            ratio(s.linkDelivered, s.linkAttempts), "ratio");
    rep.add("checker.busy_s", sec(Span::Check), "s");
    rep.add("checker.events", static_cast<double>(s.checkerEvents),
            "count");
    rep.add("checker.allocs_per_instr", allocsPerInstr({Span::Check}),
            "1/instr");
    rep.add("replay.record_busy_s", sec(Span::ReplayRecord), "s");
    rep.add("replay.localize_s", sec(Span::ReplayLocalize), "s");
    rep.add("replay.retransmit_bytes",
            static_cast<double>(s.retransmitBytes), "B");
    rep.add("cosim.traced_wall_s", wall, "s");
    rep.add("cosim.driver_self_s", l.driverSelfNs() * 1e-9, "s");
    rep.add("cosim.pipeline_ceiling", ratio(wall, std::max(hw, sw)), "x");
    rep.add("cosim.trace_overhead", ratio(wall, s.untracedSec) - 1.0,
            "ratio");
    // The session workloads run no fleet: these read 0 there.
    rep.add("fleet.utilization", fleet.utilization, "ratio");
    rep.add("fleet.queue_wait_s_p50", fleet.queueP50, "s");
    rep.add("fleet.queue_wait_s_p75", fleet.queueP75, "s");
    rep.add("fleet.retries", static_cast<double>(fleet.retries), "count");
    rep.add("fleet.steals", static_cast<double>(fleet.steals), "count");
    rep.add("fleet.programs_built", static_cast<double>(fleet.programsBuilt),
            "count");
    rep.add("fleet.report_s", fleet.reportSec, "s");
    rep.add("host.allocs_per_instr", s.runAllocs / instrs, "1/instr");
    rep.add("host.allocs_per_cycle",
            ratio(s.runAllocs, static_cast<double>(s.cycles)), "1/cycle");
}

/** Driver self time is the traced wall minus the spans, so the layer self
 *  times and it add up to the wall exactly when no two spans overlap. */
void
checkLedgerAddsUp(Report &rep, const Ledger &l, const std::string &what)
{
    rep.gate(l.spanNs() <= l.wallNs,
             what + ": layer spans exceed the traced wall (overlap)");
}

/** Span call and allocation counts must repeat exactly. */
void
checkLedgerRepeats(Report &rep, const Ledger &a, const Ledger &b,
                   const std::string &what)
{
    for (size_t i = 0; i < kNumSpans; ++i) {
        rep.gate(a.spans[i].calls == b.spans[i].calls,
                 what + ": " + spanName(static_cast<Span>(i)) +
                     " call count differs between repetitions");
        rep.gate(a.spans[i].allocs == b.spans[i].allocs,
                 what + ": " + spanName(static_cast<Span>(i)) +
                     " allocation count differs between repetitions");
    }
}

void
gateFaithful(Report &rep, const SessionFacts &traced,
             const SessionFacts &untraced, const std::string &what)
{
    for (const std::string &field : sessionsDiffer(traced, untraced))
        rep.gate(false, what + ": traced driver differs from "
                               "CoSimulator::run in " + field);
}

void
gateRepeats(Report &rep, const UntracedRun &first, const UntracedRun &u,
            const std::string &what)
{
    for (const std::string &field : sessionsDiffer(first.facts, u.facts))
        rep.gate(false, what + ": " + field +
                            " differs between repetitions of one seed");
    rep.gate(first.runAllocs == u.runAllocs,
             what + ": run() allocation count differs between "
                    "repetitions of one seed");
}

bool
cleanPass(const SessionFacts &f)
{
    return f.verified && f.goodTrap && !f.linkDegraded;
}

/**
 * Detected, and Replay refined the report to the instruction where the
 * fault first becomes visible: at or just after the fired instruction
 * (tests/cosim_test.cc's criterion). A flipped store bit shows at the
 * following store-buffer flush and a lost interrupt at the next commit,
 * so "just after" is bounded by one fusion window, the granularity the
 * report would have without Replay.
 */
bool
bugLocalized(const SessionFacts &f, unsigned max_fuse)
{
    const checker::MismatchReport &m = f.mismatch;
    return f.fault.fired && !f.verified && m.valid && f.replayRan &&
           m.replayed && !m.fused && m.seq >= f.fault.firedSeq &&
           m.seq - f.fault.firedSeq < max_fuse;
}

std::string
describeBug(const SessionFacts &f)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "fired %d at #%llu, verified %d, replay ran %d, "
                  "mismatch: %s",
                  f.fault.fired, (unsigned long long)f.fault.firedSeq,
                  f.verified, f.replayRan,
                  f.mismatch.valid ? f.mismatch.describe().c_str()
                                   : "none");
    return buf;
}

void
writeTrace(const std::string &dir, const char *workload,
           const obs::TraceLog &log)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string path = dir + "/" + workload + ".trace.json";
    if (obs::writeFile(path, obs::chromeTraceJson({&log})))
        std::printf("trace: %s (%zu spans, %llu dropped)\n", path.c_str(),
                    log.spans().size(),
                    static_cast<unsigned long long>(log.dropped()));
    else
        std::printf("trace: cannot write %s\n", path.c_str());
}

// ---------------------------------------------------------------------
// Session workloads
// ---------------------------------------------------------------------

struct SessionRep
{
    UntracedRun run;
    double genSec = 0;
    std::shared_ptr<const workload::Program> program;
};

SessionRep
sessionRep(const fleet::JobSpec &spec, bool digest)
{
    SessionRep r;
    Clock::time_point t0 = Clock::now();
    r.program = makeProgram(spec);
    r.genSec = since(t0);
    r.run = runUntraced(spec, r.program, digest);
    return r;
}

/** Set-up as a user pays it: generate the program, build the session. */
double
setupSec(const fleet::JobSpec &spec)
{
    Clock::time_point t0 = Clock::now();
    cosim::CoSimulator sim(spec.config, makeProgram(spec));
    if (spec.hasFault)
        sim.armFault(spec.fault);
    return since(t0);
}

void
runSession(WorkloadId id, const fleet::JobSpec &spec, double seconds,
           bool trace, const std::string &trace_dir, Report &rep)
{
    const std::string name = workloadName(id);
    Clock::time_point t0 = Clock::now();
    // run_sec is raw host time; ref_sec the same in reference seconds.
    std::vector<double> setup, gen, run_sec, ref_sec;
    SessionRep first;
    LayerSums best; //!< the fastest traced session
    Ledger first_ledger;
    obs::TraceLog first_log;
    unsigned reps = 0;

    HostProbe probe;
    while (reps < kMinReps || since(t0) < seconds) {
        const double scale = probe.measure();
        for (int i = 0; i < kSetupsPerRep; ++i)
            setup.push_back(setupSec(spec) * scale);
        // Timed reps run as users run: no checked-stream tap. Traced
        // reps need the digest on both sides of the faithfulness gate.
        SessionRep r = sessionRep(spec, trace);
        const SessionFacts &f = r.run.facts;
        std::string what = name + " rep " + std::to_string(reps);
        rep.check(cleanPass(f), what + ": not verified to the good trap "
                                       "over a healthy link");
        if (reps == 0)
            first = r;
        else
            gateRepeats(rep, first.run, r.run, what);
        gen.push_back(r.genSec);
        run_sec.push_back(r.run.runSec);
        ref_sec.push_back(r.run.runSec * scale);

        if (trace) {
            obs::TraceLog log;
            log.start("traced_" + name, 0, obs::TraceClock::now(),
                      kTraceSpans);
            Ledger ledger;
            SessionFacts tf = runTraced(spec, r.program, log, &ledger);
            gateFaithful(rep, tf, f, what);
            checkLedgerAddsUp(rep, ledger, what);
            LayerSums one;
            one.add(ledger, r.run);
            if (reps == 0 || ledger.wallNs < best.ledger.wallNs)
                best = one;
            if (reps == 0) {
                first_ledger = ledger;
                first_log = std::move(log);
            } else {
                checkLedgerRepeats(rep, first_ledger, ledger, what);
            }
        }
        ++reps;
    }

    const SessionFacts &f = first.run.facts;
    double khz = f.simSpeedHz / 1e3;
    std::printf("%s: %u sessions, %llu instrs, %llu cycles each\n",
                name.c_str(), reps, (unsigned long long)f.instrs,
                (unsigned long long)f.cycles);
    std::printf("%s: deterministic counts: transfers %llu, bytes %llu, "
                "dut events %llu, checker events %llu, run allocs %llu, "
                "modeled %.6f KHz\n",
                name.c_str(),
                (unsigned long long)f.counters.get("pack.transfers"),
                (unsigned long long)f.counters.get("pack.bytes"),
                (unsigned long long)f.counters.get("dut.events"),
                (unsigned long long)f.counters.get("checker.events"),
                (unsigned long long)first.run.runAllocs, khz);
    if (trace) {
        std::printf("%s: checked-stream digest %016llx over %llu events\n",
                    name.c_str(), (unsigned long long)f.digest,
                    (unsigned long long)f.checkedEvents);
    }
    if (id == WorkloadId::BootBnsd) {
        std::printf("%s: modeled %.1f KHz vs paper %.0f KHz (Table 5, "
                    "XS/PLDM +Squash): %+.1f%%\n",
                    name.c_str(), khz, kPaperBnsdKhz,
                    (khz / kPaperBnsdKhz - 1.0) * 100.0);
    } else {
        std::printf("%s: modeled %.1f KHz; the paper has no reference "
                    "value for this point, so the model is unvalidated "
                    "here\n",
                    name.c_str(), khz);
    }

    probe.print(name);
    // Host speed also drifts within a run; the fastest repetition is the
    // steadiest estimate of what the code costs.
    const double best_run = *std::min_element(run_sec.begin(), run_sec.end());
    if (!trace) {
        const double ref_run =
            *std::min_element(ref_sec.begin(), ref_sec.end());
        rep.add("instrs_per_s", ratio(f.instrs, ref_run), "1/s");
        rep.add("setup_s", median(setup), "s");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        rep.add("modeled_khz", khz, "KHz");
        // A session workload is one job: one verified CoSimulator run.
        rep.add("jobs_per_s", ratio(1.0, ref_run), "1/s");
        rep.add("job_s_p50", ref_run, "s");
        rep.add("job_s_p75", ref_run, "s");
        return;
    }

    u64 ref_instrs = 0;
    double ref_s = 0;
    for (int i = 0; i < 3; ++i) {
        u64 n = 0;
        double s = refOnlySec(*first.program, spec.config.dut.cores,
                              spec.config.seed, &n);
        ref_s = i == 0 ? s : std::min(ref_s, s);
        ref_instrs = n;
    }
    best.untracedSec = best_run;
    addLayerMetrics(rep, best, median(gen), ref_s, ref_instrs, {});
    rep.add("host.probe_s", probe.medianSec(), "s");
    writeTrace(trace_dir, name.c_str(), first_log);
}

// ---------------------------------------------------------------------
// Campaign workload
// ---------------------------------------------------------------------


/** Campaign set-up as a user pays it: spec expansion plus the program
 *  library. Returns the number of programs built. */
size_t
campaignSetup(u64 seed, fleet::Campaign *campaign,
              std::vector<std::shared_ptr<const workload::Program>> *programs)
{
    *campaign = campaignMix(seed);
    fleet::ProgramLibrary library;
    programs->clear();
    for (const fleet::JobSpec &spec : campaign->jobs)
        programs->push_back(library.get(spec));
    return library.builds();
}

void
runCampaign(u64 seed, double seconds, bool trace,
            const std::string &trace_dir, Report &rep)
{
    const std::string name = workloadName(WorkloadId::CampaignMix);
    Clock::time_point t0 = Clock::now();

    std::vector<double> setup;
    fleet::Campaign campaign;
    std::vector<std::shared_ptr<const workload::Program>> programs;
    size_t programs_built = campaignSetup(seed, &campaign, &programs);
    const size_t n = campaign.jobs.size();

    // Reference pass: every job alone on a fresh CoSimulator (first
    // attempt, untraced; also traced and gated when tracing).
    std::vector<UntracedRun> solo(n);
    LayerSums sums;
    obs::TraceLog trace_log;
    if (trace)
        trace_log.start("traced_jobs", 0, obs::TraceClock::now(),
                        kTraceSpans);
    u64 ref_instrs = 0;
    double ref_sec = 0;
    double modeled_cycles = 0, modeled_sec = 0;
    for (size_t i = 0; i < n; ++i) {
        const fleet::JobSpec &spec = campaign.jobs[i];
        std::string what = name + " job " + spec.name;
        solo[i] = runUntraced(spec, programs[i], trace);
        const SessionFacts &f = solo[i].facts;
        modeled_cycles += static_cast<double>(f.cycles);
        modeled_sec += f.timing.totalSec;
        if (spec.hasFault) {
            rep.check(bugLocalized(f, spec.config.maxFuse),
                      what + ": bug not detected or not localized to the "
                             "fired instruction by Replay (" +
                          describeBug(f) + ")");
        } else if (spec.maxRetries == 0) {
            rep.check(cleanPass(f), what + ": not verified to the good "
                                           "trap over a healthy link");
        }
        if (trace) {
            Ledger ledger;
            SessionFacts tf = runTraced(spec, programs[i], trace_log,
                                        &ledger);
            gateFaithful(rep, tf, f, what);
            checkLedgerAddsUp(rep, ledger, what);
            sums.add(ledger, solo[i]);
            u64 k = 0;
            ref_sec += refOnlySec(*programs[i], spec.config.dut.cores,
                                  spec.config.seed, &k);
            ref_instrs += k;
        }
    }

    // Timed campaigns on the fleet, until the budget is spent.
    fleet::FleetConfig fc;
    fc.workers = campaignWorkers();
    // Best over the repetitions, in reference seconds: campaign
    // throughput, each job's run time (percentiles are then taken over
    // jobs), and the fastest campaign's fleet observations.
    double best_jobs_per_s = 0, best_ips = 0;
    std::vector<double> job_best(n);
    FleetSample fleet_best;
    std::string first_report;
    u64 aggregate_digest = 0;
    unsigned reps = 0;
    // The budget covers the timed campaigns, not the reference pass.
    t0 = Clock::now();
    HostProbe probe;
    while (reps < kMinReps || since(t0) < seconds) {
        const double scale = probe.measure();
        for (int i = 0; i < kSetupsPerRep; ++i) {
            fleet::Campaign c;
            std::vector<std::shared_ptr<const workload::Program>> p;
            Clock::time_point s0 = Clock::now();
            campaignSetup(seed, &c, &p);
            setup.push_back(since(s0) * scale);
        }
        fleet::CampaignResult r = fleet::FleetScheduler(fc).run(campaign);
        std::string what = name + " campaign " + std::to_string(reps);
        u64 instrs = 0;
        std::vector<double> queue;
        for (size_t i = 0; i < n; ++i) {
            const fleet::JobResult &j = r.jobs[i];
            const fleet::JobSpec &spec = campaign.jobs[i];
            const SessionFacts &f = solo[i].facts;
            if (spec.maxRetries > 0) {
                rep.check(j.ok() && j.recovered,
                          what + " job " + j.name +
                              ": link collapse did not recover on retry");
            } else {
                auto want = spec.hasFault ? fleet::JobOutcome::Failed
                                           : fleet::JobOutcome::Passed;
                rep.check(j.outcome == want && j.attempts == 1 &&
                              j.instrs == f.instrs && j.cycles == f.cycles,
                          what + " job " + j.name +
                              ": fleet result differs from the solo run");
            }
            instrs += j.instrs;
            const double job_s = j.runSec * scale;
            job_best[i] = reps == 0 ? job_s : std::min(job_best[i], job_s);
            queue.push_back(j.queueLatencySec);
        }
        Clock::time_point r0 = Clock::now();
        std::string report = fleet::campaignReportJson(r);
        double report_s = since(r0);
        if (reps == 0) {
            first_report = report;
            aggregate_digest = fleet::aggregateDigest(r.aggregate);
        } else {
            rep.gate(report == first_report,
                     what + ": deterministic campaign report differs "
                            "between repetitions");
        }
        const double wall = r.wallSec * scale;
        best_ips = std::max(best_ips, ratio(instrs, wall));
        FleetSample fs;
        fs.utilization = ratio(r.busySec, r.wallSec * r.workers);
        fs.queueP50 = percentile(queue, 0.5);
        fs.queueP75 = percentile(queue, 0.75);
        fs.reportSec = report_s;
        fs.retries = r.aggregate.get("fleet.retries");
        fs.steals = r.steals;
        fs.programsBuilt = r.aggregate.get("fleet.programs_built");
        rep.gate(fs.programsBuilt == programs_built,
                 what + ": fleet built a different number of programs");
        if (ratio(n, wall) > best_jobs_per_s) {
            best_jobs_per_s = ratio(n, wall);
            fleet_best = fs;
        }
        ++reps;
    }

    u64 bugs = 0;
    for (const fleet::JobSpec &spec : campaign.jobs)
        bugs += spec.hasFault ? 1 : 0;
    std::printf("%s: %zu jobs (%llu armed bugs) x %u campaigns on %u "
                "workers; %zu programs built\n",
                name.c_str(), n, (unsigned long long)bugs, reps,
                fc.workers, programs_built);
    std::printf("%s: deterministic aggregate digest %016llx\n",
                name.c_str(), (unsigned long long)aggregate_digest);
    double khz = ratio(modeled_cycles, modeled_sec) / 1e3;
    std::printf("%s: modeled %.1f KHz over all jobs' first attempts; no "
                "paper reference for this mix, so unvalidated\n",
                name.c_str(), khz);

    probe.print(name);
    if (!trace) {
        rep.add("instrs_per_s", best_ips, "1/s");
        rep.add("setup_s", median(setup), "s");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        rep.add("modeled_khz", khz, "KHz");
        rep.add("jobs_per_s", best_jobs_per_s, "1/s");
        rep.add("job_s_p50", percentile(job_best, 0.5), "s");
        rep.add("job_s_p75", percentile(job_best, 0.75), "s");
        return;
    }
    std::vector<double> gen_samples;
    for (int i = 0; i < 3; ++i) {
        Clock::time_point g0 = Clock::now();
        fleet::ProgramLibrary library;
        for (const fleet::JobSpec &spec : campaign.jobs)
            library.get(spec);
        gen_samples.push_back(since(g0));
    }
    addLayerMetrics(rep, sums, median(gen_samples), ref_sec, ref_instrs,
                    fleet_best);
    rep.add("host.probe_s", probe.medianSec(), "s");
    writeTrace(trace_dir, name.c_str(), trace_log);
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: dth_perfbench --workload "
                 "boot_bnsd|io_z_lossy|campaign_mix --seed N --seconds S "
                 "--trace 0|1 [--trace-dir DIR]\n",
                 msg);
    return 2;
}

bool
parseU64(const char *s, u64 *out)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || *s == '-')
        return false;
    *out = v;
    return true;
}

void
printJson(const Report &rep)
{
    std::string out = "{\"correct\": ";
    out += rep.problems.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(rep.attempted);
    out += ", \"failed\": " + std::to_string(rep.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < rep.metrics.size(); ++i) {
        const Report::Metric &m = rep.metrics[i];
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_dir = ".bench_build/traces";
    u64 seed = 0, seconds = 0, trace = 0;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        if (arg == "--workload") {
            workload = val;
        } else if (arg == "--seed") {
            have_seed = parseU64(val, &seed);
            if (!have_seed)
                return usage("--seed takes an unsigned integer");
        } else if (arg == "--seconds") {
            have_seconds = parseU64(val, &seconds) && seconds > 0;
            if (!have_seconds)
                return usage("--seconds takes a positive integer");
        } else if (arg == "--trace") {
            have_trace = parseU64(val, &trace) && trace <= 1;
            if (!have_trace)
                return usage("--trace takes 0 or 1");
        } else if (arg == "--trace-dir") {
            trace_dir = val;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    WorkloadId id;
    if (!workloadFromName(workload, &id))
        return usage("unknown or missing --workload");
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");

    Report rep;
    std::printf("workload %s, seed %llu, %llu s, trace %llu\n",
                workload.c_str(), (unsigned long long)seed,
                (unsigned long long)seconds, (unsigned long long)trace);
    switch (id) {
      case WorkloadId::BootBnsd:
        runSession(id, bootBnsd(seed), seconds, trace, trace_dir, rep);
        break;
      case WorkloadId::IoZLossy:
        runSession(id, ioZLossy(seed), seconds, trace, trace_dir, rep);
        break;
      case WorkloadId::CampaignMix:
        runCampaign(seed, seconds, trace, trace_dir, rep);
        break;
    }

    for (const Report::Metric &m : rep.metrics)
        std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-28s %18.6f (%lu of %lu operations wrong)\n",
                "fail_frac", ratio(rep.failed, rep.attempted), rep.failed,
                rep.attempted);
    for (const std::string &p : rep.problems)
        std::printf("FAIL: %s\n", p.c_str());
    printJson(rep);
    std::fflush(stdout);
    return rep.problems.empty() ? 0 : 1;
}
