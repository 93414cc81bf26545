/**
 * @file
 * The benchmark's workloads, each a pure function of its seed. A session
 * workload is one fleet::JobSpec run on a fresh CoSimulator; the campaign
 * workload is a whole fleet::Campaign. README.md says why each exists.
 */
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "fleet/campaign.h"

namespace perfbench {

enum class WorkloadId { BootBnsd, IoZLossy, CampaignMix };

/** Parse a --workload name; false if unknown. */
bool workloadFromName(const std::string &name, WorkloadId *out);
const char *workloadName(WorkloadId id);

/** One long BNSD session of the boot-like workload (single core). */
dth::fleet::JobSpec bootBnsd(dth::u64 seed);
/** One MMIO-heavy dual-core session at opt level Z over a lossy link. */
dth::fleet::JobSpec ioZLossy(dth::u64 seed);
/** Regression-campaign traffic: clean matrix jobs, armed bug jobs and
 *  one link-collapse job that recovers through quarantine and retry. */
dth::fleet::Campaign campaignMix(dth::u64 seed);

/** Campaign workers: min(4, hardware threads). */
unsigned campaignWorkers();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
