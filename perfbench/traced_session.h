/**
 * @file
 * The benchmark's traced serial driver and the facts the faithfulness
 * gate compares.
 *
 * TracedSession builds the same components CoSimulator builds and makes
 * the same public calls, in the same order, as CoSimulator::runSerial,
 * processTransfer and runReplay. Each call into a layer is wrapped in a
 * span that adds its wall time, call count and heap allocations to a
 * per-layer ledger and records it on an obs::TraceLog (kept in memory,
 * written out as a Chrome trace at the end). Consecutive calls into one
 * layer for one cycle (ReplayBuffer::record over a cycle's events) share
 * a span. Everything outside the spans is the driver's own work, so the
 * span totals plus driver self time equal the traced wall time.
 *
 * The driver is a copy of library logic, so it can drift from the real
 * one; sessionsDiffer() catches that by comparing a traced session with
 * an untraced CoSimulator::run of the same spec.
 */
#ifndef PERFBENCH_TRACED_SESSION_H_
#define PERFBENCH_TRACED_SESSION_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "cosim/cosim.h"
#include "fleet/campaign.h"
#include "obs/trace_log.h"

namespace perfbench {

/** Timed call sites, grouped by the layer they call into. */
enum class Span : unsigned {
    DutCycle,       //!< DutModel::cycle
    SquashProcess,  //!< SquashUnit::process / finish
    Pack,           //!< Packer::packCycle / flush
    LinkChannel,    //!< ResilientChannel::transmit
    LinkLedger,     //!< LinkSimulator::onTransfer
    Unpack,         //!< Unpacker::unpackInto
    Complete,       //!< SquashCompleter::completeInPlace
    Reorder,        //!< Reorderer::push / drainInto / drainAllInto
    Check,          //!< CoreChecker::processEvent
    ReplayRecord,   //!< ReplayBuffer::record / release
    ReplayLocalize, //!< ReplayBuffer::request + countRetransmit,
                    //!< CoreChecker::replayOriginalEvents
    kCount
};
inline constexpr size_t kNumSpans = static_cast<size_t>(Span::kCount);

/** Trace-event name of @p span. */
const char *spanName(Span span);

struct SpanTotals
{
    dth::u64 ns = 0;
    dth::u64 calls = 0;
    dth::u64 allocs = 0;
};

/** Where one traced session's host time and allocations went. */
struct Ledger
{
    std::array<SpanTotals, kNumSpans> spans{};
    /** First DUT cycle to the end of the drain. */
    dth::u64 wallNs = 0;
    /** Heap allocations over the same interval, spans or not. */
    dth::u64 allocs = 0;

    const SpanTotals &operator[](Span s) const
    {
        return spans[static_cast<size_t>(s)];
    }
    dth::u64 spanNs() const;
    dth::u64 driverSelfNs() const { return wallNs - spanNs(); }
};

/** The facts of one session that must not depend on the driver. */
struct SessionFacts
{
    bool verified = false;
    bool goodTrap = false;
    dth::u64 cycles = 0;
    dth::u64 instrs = 0;
    double simSpeedHz = 0;
    /** StreamDigest of the checked events (0 when not taken). */
    dth::u64 digest = 0;
    dth::u64 checkedEvents = 0;
    dth::link::LinkResult timing;
    dth::link::ChannelReport link;
    bool linkDegraded = false;
    dth::checker::MismatchReport mismatch;
    bool replayRan = false;
    bool replayComplete = false;
    dth::dut::FaultOutcome fault;
    /** Every stat the session registered except host.* telemetry. */
    dth::obs::StatSnapshot counters;
};

/** Order-sensitive digest of the checked-event stream. It hashes whole
 *  words, so it costs a small share of the session it observes. */
struct StreamDigest
{
    dth::u64 hash = 0xCBF29CE484222325ull;
    dth::u64 events = 0;
    void operator()(const dth::Event &e);
};

/** A session's program image, generated from its spec. */
std::shared_ptr<const dth::workload::Program>
makeProgram(const dth::fleet::JobSpec &spec);

/** One untraced session and what it cost the host. */
struct UntracedRun
{
    SessionFacts facts;
    double constructSec = 0; //!< CoSimulator construction
    double runSec = 0;       //!< CoSimulator::run
    dth::u64 runAllocs = 0;  //!< heap allocations during run()
};

/** One untraced session: CoSimulator::run on a fresh instance (the
 *  spec's first-attempt config, as a user runs it). With @p digest the
 *  checked stream is digested through CoSimulator::setCheckedTap. */
UntracedRun runUntraced(const dth::fleet::JobSpec &spec,
                        std::shared_ptr<const dth::workload::Program> p,
                        bool digest);

/** The traced serial driver (see file comment). Single use. */
class TracedSession
{
  public:
    /** @p log must be started; spans past its capacity count as
     *  dropped but still reach the ledger. */
    TracedSession(const dth::cosim::CosimConfig &config,
                  std::shared_ptr<const dth::workload::Program> program,
                  dth::obs::TraceLog &log);
    ~TracedSession();
    TracedSession(const TracedSession &) = delete;
    TracedSession &operator=(const TracedSession &) = delete;

    void armFault(const dth::dut::FaultSpec &spec);
    SessionFacts run(dth::u64 max_cycles);
    const Ledger &ledger() const { return ledger_; }

  private:
    class Timed;

    void hwPackCycle(dth::CycleEvents &ce,
                     std::vector<dth::Transfer> &out);
    void stampEmissionOrder(dth::CycleEvents &cycle);
    void processTransfer(const dth::Transfer &transfer);
    void feedChecker(const dth::Event &event);
    void runReplay(unsigned core);
    bool anyFailed() const;
    bool allGoodTrap() const;
    SessionFacts finish();

    dth::cosim::CosimConfig config_;
    std::shared_ptr<const dth::workload::Program> program_;
    dth::obs::TraceLog &log_;
    Ledger ledger_;
    StreamDigest digest_;

    std::unique_ptr<dth::dut::DutModel> dut_;
    std::unique_ptr<dth::SquashUnit> squash_;
    std::unique_ptr<dth::Packer> packer_;
    std::unique_ptr<dth::Unpacker> unpacker_;
    std::unique_ptr<dth::SquashCompleter> completer_;
    std::unique_ptr<dth::Reorderer> reorderer_;
    std::unique_ptr<dth::replay::ReplayBuffer> replayBuffer_;
    std::unique_ptr<dth::link::LinkSimulator> link_;
    std::unique_ptr<dth::link::ResilientChannel> channel_;
    std::vector<std::unique_ptr<dth::checker::CoreChecker>> checkers_;

    bool replayRan_ = false;
    bool replayComplete_ = false;
    bool linkFailed_ = false;
    std::vector<dth::u64> emitCounters_;
    dth::u64 lastEmitCycle_ = 0;
    dth::u64 swCycle_ = 0;
    dth::CycleEvents squashScratch_;
    std::vector<dth::Event> unpackScratch_;
    std::vector<dth::Event> drainScratch_;
    dth::Transfer linkScratch_;
};

/** Run @p spec once through TracedSession (first attempt's config). */
SessionFacts runTraced(const dth::fleet::JobSpec &spec,
                       std::shared_ptr<const dth::workload::Program> p,
                       dth::obs::TraceLog &log, Ledger *ledger);

/** Human-readable differences between two sessions' facts (empty when
 *  they agree exactly). */
std::vector<std::string> sessionsDiffer(const SessionFacts &a,
                                        const SessionFacts &b);

} // namespace perfbench

#endif // PERFBENCH_TRACED_SESSION_H_
