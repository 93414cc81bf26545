#include "traced_session.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "alloc_count.h"
#include "common/logging.h"

namespace perfbench {

using namespace dth;

const char *
spanName(Span span)
{
    switch (span) {
      case Span::DutCycle: return "dut.cycle";
      case Span::SquashProcess: return "squash.process";
      case Span::Pack: return "pack.pack";
      case Span::LinkChannel: return "link.channel";
      case Span::LinkLedger: return "link.ledger";
      case Span::Unpack: return "pack.unpack";
      case Span::Complete: return "squash.complete";
      case Span::Reorder: return "squash.reorder";
      case Span::Check: return "checker.process";
      case Span::ReplayRecord: return "replay.record";
      case Span::ReplayLocalize: return "replay.localize";
      case Span::kCount: break;
    }
    return "?";
}

u64
Ledger::spanNs() const
{
    u64 ns = 0;
    for (const SpanTotals &s : spans)
        ns += s.ns;
    return ns;
}

void
StreamDigest::operator()(const Event &e)
{
    auto mix = [this](u64 v) {
        hash = (hash ^ v) * 0x100000001B3ull;
        hash ^= hash >> 29;
    };
    ++events;
    mix(static_cast<u64>(e.type) | u64(e.core) << 8 | u64(e.index) << 16);
    mix(e.commitSeq);
    mix(e.emitSeq);
    mix(e.payload.size());
    size_t i = 0;
    for (; i + 8 <= e.payload.size(); i += 8) {
        u64 w;
        std::memcpy(&w, e.payload.data() + i, 8);
        mix(w);
    }
    if (i < e.payload.size()) {
        u64 tail = 0;
        std::memcpy(&tail, e.payload.data() + i, e.payload.size() - i);
        mix(tail);
    }
}

std::shared_ptr<const workload::Program>
makeProgram(const fleet::JobSpec &spec)
{
    return std::make_shared<const workload::Program>(
        fleet::buildWorkload(spec));
}

namespace {

/** @p snap without the host.* wall-clock telemetry. */
obs::StatSnapshot
withoutHostStats(const obs::StatSnapshot &snap)
{
    auto host = [](const std::string &name) {
        return name.rfind("host.", 0) == 0;
    };
    obs::StatSnapshot out;
    for (const auto &[name, value] : snap.integers())
        if (!host(name))
            out.setInt(name, snap.kindOf(name), value);
    for (const auto &[name, value] : snap.reals())
        if (!host(name))
            out.setReal(name, value);
    for (const auto &[name, data] : snap.hists())
        if (!host(name))
            out.setHist(name, data);
    return out;
}

} // namespace

UntracedRun
runUntraced(const fleet::JobSpec &spec,
            std::shared_ptr<const workload::Program> program, bool digest)
{
    using Clock = std::chrono::steady_clock;
    UntracedRun run;
    Clock::time_point t0 = Clock::now();
    cosim::CoSimulator sim(spec.config, std::move(program));
    if (spec.hasFault)
        sim.armFault(spec.fault);
    StreamDigest stream;
    if (digest)
        sim.setCheckedTap([&stream](const Event &e) { stream(e); });
    Clock::time_point t1 = Clock::now();
    u64 allocs0 = threadAllocs();
    cosim::CosimResult r = sim.run(spec.maxCycles);
    run.runAllocs = threadAllocs() - allocs0;
    Clock::time_point t2 = Clock::now();
    run.constructSec = std::chrono::duration<double>(t1 - t0).count();
    run.runSec = std::chrono::duration<double>(t2 - t1).count();

    SessionFacts &f = run.facts;
    f.verified = r.verified;
    f.goodTrap = r.goodTrap;
    f.cycles = r.cycles;
    f.instrs = r.instrs;
    f.simSpeedHz = r.simSpeedHz;
    f.digest = stream.hash;
    f.checkedEvents = stream.events;
    f.timing = r.timing;
    f.link = r.linkReport;
    f.linkDegraded = r.linkDegraded;
    f.mismatch = r.mismatch;
    f.replayRan = r.replayRan;
    f.replayComplete = r.replayComplete;
    f.fault = sim.dutModel().faultOutcome();
    f.counters = withoutHostStats(r.counters);
    return run;
}

/** One span: wall time, call and allocation counts into the ledger,
 *  plus a trace event on the log. */
class TracedSession::Timed
{
  public:
    Timed(TracedSession &s, Span span)
        : s_(s), span_(span), allocs0_(threadAllocs()),
          beginNs_(s.log_.nowNs())
    {}
    ~Timed()
    {
        u64 end = s_.log_.nowNs();
        SpanTotals &t = s_.ledger_.spans[static_cast<size_t>(span_)];
        t.ns += end - beginNs_;
        ++t.calls;
        t.allocs += threadAllocs() - allocs0_;
        s_.log_.addSpan(spanName(span_), beginNs_, end);
    }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    TracedSession &s_;
    Span span_;
    u64 allocs0_;
    u64 beginNs_;
};

// Construction mirrors CoSimulator's (cosim/cosim.cc).
TracedSession::TracedSession(
    const cosim::CosimConfig &config,
    std::shared_ptr<const workload::Program> program, obs::TraceLog &log)
    : config_(config), program_(std::move(program)), log_(log)
{
    dth_assert(log_.enabled(), "traced session needs a started log");
    dut_ = std::make_unique<dut::DutModel>(config_.dut, program_,
                                           config_.seed);
    if (config_.squash) {
        SquashConfig sc;
        sc.maxFuse = config_.maxFuse;
        sc.differencing = config_.differencing;
        sc.orderCoupled = config_.orderCoupledFusion;
        sc.cores = config_.dut.cores;
        squash_ = std::make_unique<SquashUnit>(sc);
    }
    if (config_.fixedOffsetPacking) {
        packer_ = std::make_unique<FixedOffsetPacker>(
            config_.dut.eventEnabled, config_.dut.cores,
            config_.packetBytes);
        unpacker_ = std::make_unique<FixedOffsetUnpacker>(
            config_.dut.eventEnabled, config_.dut.cores);
    } else if (config_.batch) {
        packer_ = std::make_unique<BatchPacker>(config_.packetBytes);
        unpacker_ = std::make_unique<BatchUnpacker>();
    } else {
        packer_ = std::make_unique<PerEventPacker>();
        unpacker_ = std::make_unique<PerEventUnpacker>();
    }
    completer_ = std::make_unique<SquashCompleter>(config_.dut.cores);
    reorderer_ = std::make_unique<Reorderer>(config_.dut.cores);
    if (config_.enableReplay) {
        replayBuffer_ = std::make_unique<replay::ReplayBuffer>(
            config_.dut.cores, config_.replayBufferCapacity);
    }
    link_ = std::make_unique<link::LinkSimulator>(
        config_.platform,
        config_.platform.dutOnlyHz(config_.dut.gatesMillions),
        config_.nonBlocking);
    link::LinkFaultConfig faults = config_.linkFaults;
    if (faults.seed == 0)
        faults.seed = (config_.seed * 0x9E3779B97F4A7C15ull) | 1;
    channel_ = std::make_unique<link::ResilientChannel>(faults,
                                                        link_.get());
    emitCounters_.assign(config_.dut.cores, 0);
    bool mmio_sync = config_.dut.enabled(EventType::MmioEvent);
    for (unsigned c = 0; c < config_.dut.cores; ++c) {
        checkers_.push_back(std::make_unique<checker::CoreChecker>(
            c, *program_, mmio_sync));
    }
}

TracedSession::~TracedSession() = default;

void
TracedSession::armFault(const dut::FaultSpec &spec)
{
    dut_->armFault(spec);
}

bool
TracedSession::anyFailed() const
{
    for (const auto &c : checkers_)
        if (c->failed())
            return true;
    return false;
}

bool
TracedSession::allGoodTrap() const
{
    for (const auto &c : checkers_)
        if (!c->sawGoodTrap())
            return false;
    return true;
}

void
TracedSession::feedChecker(const Event &event)
{
    digest_(event);
    checker::CoreChecker &chk = *checkers_[event.core];
    if (chk.failed())
        return;
    bool ok;
    {
        Timed t(*this, Span::Check);
        ok = chk.processEvent(event);
    }
    if (!ok) {
        if (config_.enableReplay && replayBuffer_)
            runReplay(event.core);
    } else if (event.type == EventType::FusedCommit && replayBuffer_) {
        Timed t(*this, Span::ReplayRecord);
        replayBuffer_->release(event.core, chk.lastMarkSeq());
    }
}

void
TracedSession::runReplay(unsigned core)
{
    checker::CoreChecker &chk = *checkers_[core];
    const checker::MismatchReport &rep = chk.report();
    if (!config_.squash)
        return;
    replayRan_ = true;
    u64 first = chk.lastMarkSeq() + 1;
    u64 last = std::max(rep.seq, rep.windowLastSeq);
    bool complete = false;
    std::vector<Event> originals;
    {
        Timed t(*this, Span::ReplayLocalize);
        originals = replayBuffer_->request(core, first, last, &complete);
    }
    replayComplete_ = complete;
    size_t bytes = 0;
    for (const Event &e : originals)
        bytes += eventWireBytes(e);
    link::SoftwareWork work;
    work.eventsChecked = originals.size();
    work.instrsStepped = last - first + 1;
    work.bytesParsed = bytes;
    {
        Timed t(*this, Span::LinkLedger);
        link_->onTransfer(swCycle_, bytes, work);
    }
    Timed t(*this, Span::ReplayLocalize);
    replayBuffer_->countRetransmit(originals.size(), bytes);
    chk.replayOriginalEvents(std::move(originals));
}

void
TracedSession::processTransfer(const Transfer &transfer)
{
    if (linkFailed_)
        return;
    bool delivered;
    {
        Timed t(*this, Span::LinkChannel);
        delivered = channel_->transmit(transfer, linkScratch_);
    }
    if (!delivered) {
        linkFailed_ = true;
        return;
    }

    unpackScratch_.clear();
    bool parsed;
    {
        Timed t(*this, Span::Unpack);
        parsed = unpacker_->unpackInto(linkScratch_, unpackScratch_);
    }
    if (!parsed) {
        linkFailed_ = true;
        return;
    }

    u64 instrs_before = 0, events_before = 0;
    for (const auto &c : checkers_) {
        instrs_before += c->instrsStepped();
        events_before += c->eventsChecked();
    }

    for (Event &e : unpackScratch_) {
        {
            Timed t(*this, Span::Complete);
            completer_->completeInPlace(e);
        }
        Timed t(*this, Span::Reorder);
        reorderer_->push(std::move(e));
    }
    drainScratch_.clear();
    {
        Timed t(*this, Span::Reorder);
        reorderer_->drainInto(drainScratch_);
    }
    for (Event &e : drainScratch_)
        feedChecker(e);

    u64 instrs_after = 0, events_after = 0;
    for (const auto &c : checkers_) {
        instrs_after += c->instrsStepped();
        events_after += c->eventsChecked();
    }
    link::SoftwareWork work;
    work.instrsStepped = instrs_after - instrs_before;
    work.eventsChecked = events_after - events_before;
    work.bytesParsed = transfer.size();
    Timed t(*this, Span::LinkLedger);
    link_->onTransfer(transfer.issueCycle, transfer.size(), work);
}

void
TracedSession::stampEmissionOrder(CycleEvents &cycle)
{
    for (Event &e : cycle.events)
        e.emitSeq = emitCounters_[e.core]++;
}

void
TracedSession::hwPackCycle(CycleEvents &ce, std::vector<Transfer> &out)
{
    size_t before = out.size();
    if (squash_) {
        {
            Timed t(*this, Span::SquashProcess);
            squash_->process(ce, squashScratch_);
        }
        stampEmissionOrder(squashScratch_);
        Timed t(*this, Span::Pack);
        packer_->packCycle(squashScratch_, out);
    } else {
        stampEmissionOrder(ce);
        Timed t(*this, Span::Pack);
        packer_->packCycle(ce, out);
    }
    if (out.size() > before) {
        lastEmitCycle_ = dut_->cycles();
    } else if (dut_->cycles() - lastEmitCycle_ >=
               config_.packetFlushInterval) {
        Timed t(*this, Span::Pack);
        packer_->flush(out);
        lastEmitCycle_ = dut_->cycles();
    }
}

SessionFacts
TracedSession::run(u64 max_cycles)
{
    const u64 allocs0 = threadAllocs();
    const u64 t0 = log_.nowNs();
    std::vector<Transfer> transfers;

    while (!dut_->done() && dut_->cycles() < max_cycles && !anyFailed() &&
           !linkFailed_) {
        CycleEvents ce;
        {
            Timed t(*this, Span::DutCycle);
            ce = dut_->cycle();
        }
        swCycle_ = dut_->cycles();
        if (replayBuffer_) {
            Timed t(*this, Span::ReplayRecord);
            for (const Event &e : ce.events)
                replayBuffer_->record(e);
        }
        hwPackCycle(ce, transfers);
        for (const Transfer &t : transfers)
            processTransfer(t);
        transfers.clear();
    }

    if (!anyFailed() && !linkFailed_) {
        swCycle_ = dut_->cycles();
        if (squash_) {
            {
                Timed t(*this, Span::SquashProcess);
                squash_->finish(squashScratch_);
            }
            stampEmissionOrder(squashScratch_);
            Timed t(*this, Span::Pack);
            packer_->packCycle(squashScratch_, transfers);
        }
        {
            Timed t(*this, Span::Pack);
            packer_->flush(transfers);
        }
        for (const Transfer &t : transfers)
            processTransfer(t);
        transfers.clear();
        drainScratch_.clear();
        {
            Timed t(*this, Span::Reorder);
            reorderer_->drainAllInto(drainScratch_);
        }
        for (Event &e : drainScratch_)
            feedChecker(e);
    }

    ledger_.wallNs = log_.nowNs() - t0;
    ledger_.allocs = threadAllocs() - allocs0;
    return finish();
}

// Mirrors CoSimulator::finishResult for the serial runtime.
SessionFacts
TracedSession::finish()
{
    SessionFacts f;
    f.cycles = dut_->cycles();
    f.instrs = dut_->totalInstrsRetired();
    f.timing = link_->finish(f.cycles);
    f.simSpeedHz = f.timing.totalSec > 0
                       ? static_cast<double>(f.cycles) / f.timing.totalSec
                       : 0;
    f.goodTrap = allGoodTrap();
    f.verified = !anyFailed();
    f.replayRan = replayRan_;
    f.replayComplete = replayComplete_;
    f.link = channel_->report();
    f.linkDegraded = f.link.degradeLevel >= 1 || linkFailed_;
    if (linkFailed_ || f.link.failed()) {
        f.verified = false;
        f.goodTrap = false;
    }
    for (const auto &c : checkers_) {
        if (c->failed()) {
            f.mismatch = c->report();
            break;
        }
    }
    f.digest = digest_.hash;
    f.checkedEvents = digest_.events;
    f.fault = dut_->faultOutcome();

    obs::StatSheet merged;
    if (replayBuffer_)
        merged.merge(replayBuffer_->counters());
    merged.merge(dut_->counters());
    merged.merge(packer_->counters());
    if (squash_)
        merged.merge(squash_->counters());
    for (const auto &c : checkers_)
        merged.merge(c->counters());
    merged.merge(reorderer_->counters());
    merged.merge(link_->counters());
    merged.merge(channel_->counters());
    f.counters = withoutHostStats(merged.snapshot());
    return f;
}

SessionFacts
runTraced(const fleet::JobSpec &spec,
          std::shared_ptr<const workload::Program> program,
          obs::TraceLog &log, Ledger *ledger)
{
    TracedSession session(spec.config, std::move(program), log);
    if (spec.hasFault)
        session.armFault(spec.fault);
    SessionFacts facts = session.run(spec.maxCycles);
    *ledger = session.ledger();
    return facts;
}

namespace {

template <typename T>
void
compareField(std::vector<std::string> &out, const char *name, const T &a,
             const T &b)
{
    if (!(a == b))
        out.push_back(name);
}

} // namespace

std::vector<std::string>
sessionsDiffer(const SessionFacts &a, const SessionFacts &b)
{
    std::vector<std::string> d;
#define PB_CMP(field) compareField(d, #field, a.field, b.field)
    PB_CMP(verified);
    PB_CMP(goodTrap);
    PB_CMP(cycles);
    PB_CMP(instrs);
    PB_CMP(simSpeedHz);
    PB_CMP(digest);
    PB_CMP(checkedEvents);
    PB_CMP(timing.totalSec);
    PB_CMP(timing.hwEmulationSec);
    PB_CMP(timing.startupSec);
    PB_CMP(timing.transmitSec);
    PB_CMP(timing.softwareSec);
    PB_CMP(timing.stallSec);
    PB_CMP(timing.recoverySec);
    PB_CMP(timing.transfers);
    PB_CMP(timing.bytes);
    PB_CMP(timing.errors);
    PB_CMP(link.degradeLevel);
    PB_CMP(link.frames);
    PB_CMP(link.faultsInjected);
    PB_CMP(link.naksSent);
    PB_CMP(link.retxFrames);
    PB_CMP(link.timeouts);
    PB_CMP(link.staleDiscards);
    PB_CMP(link.fallbacks);
    PB_CMP(link.unrecovered);
    PB_CMP(linkDegraded);
    PB_CMP(mismatch.valid);
    PB_CMP(mismatch.core);
    PB_CMP(mismatch.seq);
    PB_CMP(mismatch.refPc);
    PB_CMP(mismatch.eventType);
    PB_CMP(mismatch.field);
    PB_CMP(mismatch.component);
    PB_CMP(mismatch.replayed);
    PB_CMP(replayRan);
    PB_CMP(replayComplete);
    PB_CMP(fault.fired);
    PB_CMP(fault.firedSeq);
    PB_CMP(counters);
#undef PB_CMP
    return d;
}

} // namespace perfbench
