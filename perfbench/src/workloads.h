#ifndef RASQL_PERFBENCH_WORKLOADS_H_
#define RASQL_PERFBENCH_WORKLOADS_H_

#include "perfbench.h"

namespace perfbench {

/// analytics-dist: the paper's families on the distributed engine.
Outcome RunAnalytics(const Args& args);

/// serve-read (`write` false) and serve-write (`write` true): open-loop
/// traffic against an in-process server::Server.
Outcome RunServe(const Args& args, bool write);

/// Every per-layer metric at 0 in its fixed order, so a traced run reports
/// the full set even where a workload never enters a layer.
void FillLayerDefaults(Metrics* metrics);

}  // namespace perfbench

#endif  // RASQL_PERFBENCH_WORKLOADS_H_
