// Decode-and-admit: feeding validated wire frames into the admission
// machinery with zero steady-state allocation.
//
// An IngestSession owns the reusable scratch that bridges zero-copy
// WireArrival views to the TaskSpec-shaped admission API: one inline-record
// scratch spec (stages sized once, only previously-touched entries cleared
// between records), one prebuilt template spec per registered task class
// (id/deadline/importance patched per arrival), and a burst buffer of
// assembled specs for BatchAdmissionController. After the first frame of a
// given size every decode-and-admit cycle performs ZERO heap allocations —
// pinned by the operator-new hook in tests/alloc_steady_state_test.cpp.
//
// Untrusted input never aborts: replay/admit/admit_burst re-check the two
// properties WireView::open() cannot know (frame width vs this session's
// width; class ids vs this session's table) and return a typed error in
// IngestStats instead of touching the controller.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/admission.h"
#include "core/admission_decision.h"
#include "core/task.h"
#include "ingest/wire_decoder.h"
#include "ingest/wire_format.h"
#include "service/sharded_admission.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace frap::ingest {

// Out-of-band task-class registry for RecordKind::kClass records: class id
// k (dense, in add() order) maps to a full-width per-stage demand template.
class TaskClassTable {
 public:
  TaskClassTable() = default;

  // Registers a class; `stages` must be one entry per pipeline stage of
  // the sessions this table will serve. Returns the class id.
  std::uint16_t add(std::vector<core::StageDemand> stages);

  [[nodiscard]] std::size_t size() const { return classes_.size(); }
  [[nodiscard]] const std::vector<core::StageDemand>& stages_of(
      std::uint16_t class_id) const;

 private:
  std::vector<std::vector<core::StageDemand>> classes_;
};

// Per-frame ingest outcome. `error` != kNone means the frame was rejected
// whole (width/class mismatch) and no record reached the controller.
struct IngestStats {
  WireError error = WireError::kNone;
  std::uint64_t records = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;

  [[nodiscard]] bool ok() const { return error == WireError::kNone; }
};

class IngestSession {
 public:
  explicit IngestSession(std::size_t num_stages,
                         TaskClassTable classes = TaskClassTable{});

  [[nodiscard]] std::size_t num_stages() const { return num_stages_; }
  [[nodiscard]] const TaskClassTable& classes() const { return classes_; }

  // The two frame-level properties open() cannot validate: width match and
  // class-id resolution. All entry points below call this and surface the
  // typed error through IngestStats.
  [[nodiscard]] WireParse check(const WireView& view) const;

  // Materializes one decoded arrival as a TaskSpec backed by this
  // session's reusable scratch. The reference is invalidated by the next
  // assemble()/replay()/admit() call. Requires a record from a checked
  // frame (class ids are asserted, not re-validated).
  // frap:contract(hotpath)
  [[nodiscard]] const core::TaskSpec& assemble(const WireArrival& a);

  // Sequential replay through a single controller: for each record the
  // simulator is advanced to the arrival instant and the spec admitted
  // exactly as an in-process caller would — decisions are bit-identical to
  // the run the frame was captured from. `rebase` shifts every arrival by
  // (rebase - view.base_time()) for load loops that replay one frame
  // repeatedly; exact replay leaves it unset. When `decisions` is given,
  // one decision per record is appended.
  IngestStats replay(const WireView& view, core::AdmissionController& ctl,
                     sim::Simulator& sim,
                     std::vector<core::AdmissionDecision>* decisions = nullptr,
                     std::optional<Time> rebase = std::nullopt);

  // Decides the whole frame as one burst at the controller's current
  // instant (arrival instants on the wire are ignored; burst semantics).
  IngestStats admit_burst(
      const WireView& view, core::BatchAdmissionController& batch,
      std::vector<core::AdmissionDecision>* decisions = nullptr);

  // Decodes and admits against the sharded service, presenting each
  // record's arrival instant (optionally rebased) as `now`.
  IngestStats admit(const WireView& view,
                    service::ShardedAdmissionService& svc,
                    std::vector<core::AdmissionDecision>* decisions = nullptr,
                    std::optional<Time> rebase = std::nullopt);

 private:
  // Writes the full-width spec for `a` into `out` (burst slots).
  // frap:contract(hotpath)
  void assemble_into(core::TaskSpec& out, const WireArrival& a) const;

  std::size_t num_stages_;
  TaskClassTable classes_;
  core::TaskSpec spec_;                      // inline-record scratch
  std::vector<std::uint32_t> touched_;       // stages set in spec_
  std::vector<core::TaskSpec> class_specs_;  // per-class templates
  std::vector<core::TaskSpec> burst_;        // assembled burst scratch
};

}  // namespace frap::ingest
