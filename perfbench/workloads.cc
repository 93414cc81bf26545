#include "workloads.h"

#include <algorithm>
#include <thread>

namespace perfbench {

using namespace dth;
using fleet::JobSpec;
using fleet::WorkloadKind;

bool
workloadFromName(const std::string &name, WorkloadId *out)
{
    for (WorkloadId id : {WorkloadId::BootBnsd, WorkloadId::IoZLossy,
                          WorkloadId::CampaignMix}) {
        if (name == workloadName(id)) {
            *out = id;
            return true;
        }
    }
    return false;
}

const char *
workloadName(WorkloadId id)
{
    switch (id) {
      case WorkloadId::BootBnsd: return "boot_bnsd";
      case WorkloadId::IoZLossy: return "io_z_lossy";
      case WorkloadId::CampaignMix: return "campaign_mix";
    }
    return "?";
}

namespace {

/** A distinct, seed-derived 64-bit value per (seed, salt). */
u64
deriveSeed(u64 seed, u64 salt)
{
    // splitmix64 finalizer over (seed, salt): distinct streams per salt.
    u64 z = seed + (salt + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

JobSpec
bootBnsd(u64 seed)
{
    JobSpec spec;
    spec.name = "boot_bnsd";
    spec.workload = WorkloadKind::BootLike; // timer interrupts, S-mode
    spec.workloadOptions.seed = seed;
    spec.workloadOptions.iterations = 800;
    spec.workloadOptions.bodyLength = 640;
    spec.config = fleet::defaultJobConfig(); // XS default, PLDM, BNSD
    spec.config.seed = deriveSeed(seed, 1);
    spec.maxCycles = 50'000'000;
    return spec;
}

JobSpec
ioZLossy(u64 seed)
{
    JobSpec spec;
    spec.name = "io_z_lossy";
    spec.workload = WorkloadKind::IoHeavy; // timer interrupts on
    spec.workloadOptions.seed = seed;
    spec.workloadOptions.iterations = 80;
    spec.workloadOptions.bodyLength = 640;
    spec.config = fleet::defaultJobConfig();
    spec.config.dut = dut::xsDualConfig();
    spec.config.applyOptLevel(cosim::OptLevel::Z);
    spec.config.seed = deriveSeed(seed, 2);
    spec.config.linkFaults =
        link::LinkFaultConfig::allKinds(0.02, deriveSeed(seed, 3));
    spec.maxCycles = 50'000'000;
    return spec;
}

fleet::Campaign
campaignMix(u64 seed)
{
    fleet::MatrixSpec matrix;
    matrix.name = "campaign_mix";
    matrix.workloads = {WorkloadKind::Microbench, WorkloadKind::BootLike,
                        WorkloadKind::ComputeLike, WorkloadKind::VectorLike,
                        WorkloadKind::IoHeavy};
    matrix.seeds.clear();
    for (u64 i = 0; i < 4; ++i)
        matrix.seeds.push_back(deriveSeed(seed, 10 + i) & 0xFFFFFF);
    matrix.optLevels = {cosim::OptLevel::Z, cosim::OptLevel::BNSD};
    matrix.base.workloadOptions.iterations = 300;
    matrix.base.workloadOptions.bodyLength = 48;
    matrix.base.config.seed = deriveSeed(seed, 4);
    fleet::Campaign campaign = fleet::expandMatrix(matrix);

    // One job per bug archetype, on a workload that exercises it (the
    // pairing examples/bug_hunt.cc uses), at BNSD so Replay localizes.
    const dut::BugArchetype archetypes[] = {
        dut::BugArchetype::WrongRdValue,
        dut::BugArchetype::CsrCorruption,
        dut::BugArchetype::StoreDataCorruption,
        dut::BugArchetype::RefillCorruption,
        dut::BugArchetype::VectorLaneCorruption,
        dut::BugArchetype::VtypeCorruption,
        dut::BugArchetype::LostInterrupt,
    };
    for (dut::BugArchetype archetype : archetypes) {
        JobSpec bug;
        bug.name = std::string("bug-") + dut::bugArchetypeName(archetype);
        switch (archetype) {
          case dut::BugArchetype::VectorLaneCorruption:
          case dut::BugArchetype::VtypeCorruption:
            bug.workload = WorkloadKind::VectorLike;
            break;
          case dut::BugArchetype::RefillCorruption:
            bug.workload = WorkloadKind::ComputeLike;
            break;
          default:
            bug.workload = WorkloadKind::BootLike;
            break;
        }
        bug.workloadOptions.seed = deriveSeed(seed, 20) & 0xFFFFFF;
        bug.workloadOptions.iterations = 600;
        bug.workloadOptions.bodyLength = 48;
        bug.config.seed = deriveSeed(seed, 21);
        bug.hasFault = true;
        bug.fault.archetype = archetype;
        bug.fault.triggerSeq = 6000;
        campaign.add(std::move(bug));
    }

    // Last job: every attempt-0 frame stalls, so the link collapses; the
    // damped retry runs fault-free and passes (bench_fleet_scaling's
    // recovery job).
    JobSpec flaky;
    flaky.name = "link-collapse-recovery";
    flaky.workload = WorkloadKind::Microbench;
    flaky.workloadOptions.seed = deriveSeed(seed, 30) & 0xFFFFFF;
    flaky.workloadOptions.iterations = 300;
    flaky.workloadOptions.bodyLength = 48;
    flaky.config.seed = deriveSeed(seed, 31);
    flaky.config.linkFaults.enabled = true;
    flaky.config.linkFaults.stallRate = 1.0;
    flaky.config.linkFaults.maxAttempts = 2;
    flaky.config.linkFaults.unrecoverableBudget = 3;
    flaky.maxRetries = 2;
    flaky.retryFaultDamping = 0.0;
    campaign.add(std::move(flaky));
    return campaign;
}

unsigned
campaignWorkers()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, 4u);
}

} // namespace perfbench
