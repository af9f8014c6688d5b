#include "workload/replay.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "util/check.h"
#include "workload/bursty.h"
#include "workload/pipeline_workload.h"

namespace frap::workload {

void ArrivalTrace::append(Time time, const core::TaskSpec& task) {
  FRAP_EXPECTS(task.valid());
  if (records_.empty() && num_stages_ == 0) {
    num_stages_ = task.num_stages();
  }
  FRAP_EXPECTS(task.num_stages() == num_stages_);
  FRAP_EXPECTS(records_.empty() || time >= records_.back().time);
  records_.push_back(ArrivalRecord{time, task});
}

void ArrivalTrace::save(std::ostream& os) const {
  os << "frap-trace v1 " << num_stages_ << '\n';
  os.precision(17);
  for (const auto& r : records_) {
    os << r.time << ' ' << r.task.id << ' ' << r.task.deadline << ' '
       << r.task.importance;
    for (const auto& s : r.task.stages) os << ' ' << s.compute;
    os << '\n';
  }
}

bool ArrivalTrace::load(std::istream& is) {
  records_.clear();
  num_stages_ = 0;

  std::string magic;
  std::string version;
  std::size_t stages = 0;
  if (!(is >> magic >> version >> stages)) return false;
  if (magic != "frap-trace" || version != "v1" || stages == 0) return false;

  num_stages_ = stages;
  std::string line;
  std::getline(is, line);  // consume end of header line
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    ArrivalRecord r;
    if (!(ls >> r.time >> r.task.id >> r.task.deadline >>
          r.task.importance)) {
      records_.clear();
      return false;
    }
    r.task.stages.resize(stages);
    for (std::size_t j = 0; j < stages; ++j) {
      if (!(ls >> r.task.stages[j].compute)) {
        records_.clear();
        return false;
      }
    }
    if (!r.task.valid() ||
        (!records_.empty() && r.time < records_.back().time)) {
      records_.clear();
      return false;
    }
    records_.push_back(std::move(r));
  }
  return true;
}

double ArrivalTrace::offered_load(std::size_t stage) const {
  FRAP_EXPECTS(stage < num_stages_);
  if (records_.size() < 2) return 0.0;
  const Duration span = records_.back().time - records_.front().time;
  if (span <= 0) return 0.0;
  Duration work = 0;
  for (const auto& r : records_) work += r.task.stages[stage].compute;
  return work / span;
}

ArrivalTrace capture_poisson(PipelineWorkloadGenerator& gen, std::size_t count,
                             Time start) {
  FRAP_EXPECTS(count > 0);
  ArrivalTrace trace(gen.config().num_stages());
  Time t = start;
  for (std::size_t i = 0; i < count; ++i) {
    t += gen.next_interarrival();
    trace.append(t, gen.next_task());
  }
  return trace;
}

ArrivalTrace capture_mmpp(MmppArrivalProcess& arrivals,
                          PipelineWorkloadGenerator& tasks, std::size_t count,
                          Time start) {
  FRAP_EXPECTS(count > 0);
  ArrivalTrace trace(tasks.config().num_stages());
  Time t = start;
  for (std::size_t i = 0; i < count; ++i) {
    t += arrivals.next_interarrival();
    trace.append(t, tasks.next_task());
  }
  return trace;
}

}  // namespace frap::workload
