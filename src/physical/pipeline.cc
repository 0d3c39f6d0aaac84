#include "physical/pipeline.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "expr/expr.h"
#include "storage/column_chunk.h"

namespace rasql::physical {

using common::Result;
using common::Status;
using plan::LogicalPlan;
using plan::PlanKind;
using storage::Relation;
using storage::Row;
using storage::RowRange;

namespace {

/// True when `node`'s result depends on the fixpoint state.
bool ReadsRecursiveRef(const LogicalPlan& node) {
  if (node.kind() == PlanKind::kRecursiveRef) return true;
  for (const plan::PlanPtr& child : node.children()) {
    if (ReadsRecursiveRef(*child)) return true;
  }
  return false;
}

}  // namespace

std::optional<PipelineProgram> PipelineProgram::Compile(
    const LogicalPlan& plan, JoinAlgorithm join_algorithm) {
  PipelineProgram program;
  // Walk the left spine root-to-leaf, collecting steps in reverse.
  std::vector<Step> reversed;
  const LogicalPlan* node = &plan;
  while (true) {
    switch (node->kind()) {
      case PlanKind::kProject: {
        Step step;
        step.kind = Step::Kind::kProject;
        step.project = static_cast<const plan::ProjectNode*>(node);
        reversed.push_back(step);
        node = &node->child(0);
        break;
      }
      case PlanKind::kFilter: {
        Step step;
        step.kind = Step::Kind::kFilter;
        step.filter = static_cast<const plan::FilterNode*>(node);
        reversed.push_back(step);
        node = &node->child(0);
        break;
      }
      case PlanKind::kJoin: {
        const auto& join = static_cast<const plan::JoinNode&>(*node);
        if (join.is_cross() || join_algorithm != JoinAlgorithm::kHash) {
          return std::nullopt;
        }
        Step step;
        step.kind = Step::Kind::kHashProbe;
        step.join = &join;
        step.invariant = !ReadsRecursiveRef(join.child(1));
        reversed.push_back(step);
        node = &node->child(0);
        break;
      }
      case PlanKind::kTableScan:
      case PlanKind::kRecursiveRef:
      case PlanKind::kValues:
        // A bare leaf has nothing to fuse; let the tree walk resolve it.
        if (reversed.empty()) return std::nullopt;
        program.driver_ = node;
        std::reverse(reversed.begin(), reversed.end());
        program.steps_ = std::move(reversed);
        return program;
      default:
        // Aggregate / Sort / Limit are pipeline breakers.
        return std::nullopt;
    }
  }
}

Result<BoundPipeline> PipelineProgram::Bind(
    const ExecContext& ctx, const BoundPipeline* invariant) const {
  RASQL_CHECK(driver_ != nullptr);
  RASQL_CHECK(invariant == nullptr ||
              invariant->steps_.size() == steps_.size());
  BoundPipeline bound;
  bound.batch_rows_ = ctx.batch_rows;

  // Resolve the driver. VALUES drivers own a materialized copy; scans and
  // recursive refs borrow from the context.
  if (driver_->kind() == PlanKind::kValues) {
    const auto& values = static_cast<const plan::ValuesNode&>(*driver_);
    bound.driver_.owned =
        std::make_unique<Relation>(values.schema(), values.rows());
    bound.driver_.rel = bound.driver_.owned.get();
  } else {
    RASQL_ASSIGN_OR_RETURN(bound.driver_, ExecuteBorrowed(*driver_, ctx));
  }

  bound.steps_.reserve(steps_.size());
  for (size_t s = 0; s < steps_.size(); ++s) {
    if (invariant != nullptr && steps_[s].invariant) {
      bound.steps_.push_back(invariant->steps_[s]);
    } else {
      RASQL_RETURN_IF_ERROR(bound.BindStep(steps_[s], ctx));
    }
  }
  return bound;
}

Result<BoundPipeline> PipelineProgram::BindInvariant(
    const ExecContext& ctx) const {
  BoundPipeline bound;
  bound.batch_rows_ = ctx.batch_rows;
  bound.steps_.reserve(steps_.size());
  for (const Step& step : steps_) {
    if (step.invariant) {
      RASQL_RETURN_IF_ERROR(bound.BindStep(step, ctx));
    } else {
      bound.steps_.push_back(nullptr);
    }
  }
  return bound;
}

Status BoundPipeline::BindStep(const PipelineProgram::Step& step,
                               const ExecContext& ctx) {
  auto bs = std::make_unique<BoundStep>();
  bs->kind = step.kind;
  switch (step.kind) {
    case PipelineProgram::Step::Kind::kFilter:
      bs->predicate = &step.filter->predicate();
      // Compile the whole predicate for the batch path; its kernels run
      // the interpreter's semantics, so both modes agree bit for bit
      // (expr/vec_program.h).
      if (ctx.batch_rows > 0) {
        bs->vec_filter = expr::VecProgram::Compile(*bs->predicate);
      }
      break;
    case PipelineProgram::Step::Kind::kProject:
      bs->projector.emplace(step.project->exprs());
      break;
    case PipelineProgram::Step::Kind::kHashProbe: {
      RASQL_ASSIGN_OR_RETURN(bs->build,
                             ExecuteBorrowed(step.join->child(1), ctx));
      bs->table.emplace(*bs->build.rel, step.join->right_keys());
      bs->probe_keys = step.join->left_keys();
      bs->left_width = step.join->child(0).schema().num_columns();
      bs->right_width = step.join->child(1).schema().num_columns();
      ++hash_builds_;
      break;
    }
  }
  steps_.push_back(bs.get());
  owned_steps_.push_back(std::move(bs));
  return Status::OK();
}

std::vector<BoundPipeline::StepScratch> BoundPipeline::NewScratch() const {
  std::vector<StepScratch> scratch(steps_.size());
  for (size_t s = 0; s < steps_.size(); ++s) {
    if (steps_[s]->kind == PipelineProgram::Step::Kind::kHashProbe) {
      scratch[s].combined.resize(steps_[s]->left_width +
                                 steps_[s]->right_width);
    }
  }
  return scratch;
}

void BoundPipeline::PushRow(const Row& row, size_t step,
                            std::vector<StepScratch>* scratch,
                            Relation* sink) const {
  if (step == steps_.size()) {
    sink->AppendRow(row);
    return;
  }
  const BoundStep& bs = *steps_[step];
  StepScratch& ss = (*scratch)[step];
  switch (bs.kind) {
    case PipelineProgram::Step::Kind::kFilter:
      if (expr::IsTruthy(bs.predicate->Eval(row))) {
        PushRow(row, step + 1, scratch, sink);
      }
      return;
    case PipelineProgram::Step::Kind::kProject:
      // Deeper steps never retain a reference to a scratch row, so each
      // step reuses its own across driver rows and matches.
      bs.projector->EvalInto(row, &ss.projected);
      PushRow(ss.projected, step + 1, scratch, sink);
      return;
    case PipelineProgram::Step::Kind::kHashProbe: {
      ss.matches.clear();
      bs.table->Probe(row, bs.probe_keys, &ss.matches);
      if (ss.matches.empty()) return;
      // Fill the left half once per input row, the right half per match.
      std::copy(row.begin(), row.end(), ss.combined.begin());
      for (int m : ss.matches) {
        bs.build.rel->CopyRowTo(static_cast<size_t>(m), &ss.combined,
                                bs.left_width);
        PushRow(ss.combined, step + 1, scratch, sink);
      }
      return;
    }
  }
}

Status BoundPipeline::Run(RowRange range, Relation* sink) const {
  const Relation& driver = *driver_.rel;
  const size_t end = std::min(range.end, driver.size());
  if (range.begin >= end) return Status::OK();

  std::vector<StepScratch> scratch = NewScratch();
  Row row_scratch;
  std::vector<uint32_t> sel;
  expr::VecProgram::Scratch vec_scratch;

  size_t i = range.begin;
  size_t c;
  size_t local;
  driver.Locate(i, &c, &local);
  for (; i < end; ++c, local = 0) {
    const storage::ColumnChunk& chunk = driver.chunk(c);
    const size_t chunk_begin = driver.chunk_begin(c);
    const size_t local_end = std::min(end - chunk_begin, chunk.num_rows());
    // Row mode takes the chunk as one batch; its filters compiled no batch
    // kernel, so the walk goes straight to the probe or the interpreter.
    const size_t batch = batch_rows_ > 0 ? batch_rows_ : local_end;
    while (local < local_end) {
      const size_t batch_end = std::min(local_end, local + batch);
      sel.clear();
      for (size_t r = local; r < batch_end; ++r) {
        sel.push_back(static_cast<uint32_t>(r));
      }
      i += batch_end - local;
      local = batch_end;

      // Leading filters run as selection-vector kernels over the chunk's
      // typed arrays — any predicate shape, through the vectorized
      // expression layer. A chunk the kernels cannot mirror exactly drops
      // to the row interpreter for the remaining steps — same result.
      size_t s = 0;
      for (; s < steps_.size() && !sel.empty(); ++s) {
        const BoundStep& bs = *steps_[s];
        if (bs.kind != PipelineProgram::Step::Kind::kFilter ||
            !bs.vec_filter) {
          break;
        }
        if (!bs.vec_filter->FilterChunk(chunk, &sel, &vec_scratch)) break;
      }
      if (sel.empty()) continue;

      if (s < steps_.size() &&
          steps_[s]->kind == PipelineProgram::Step::Kind::kHashProbe) {
        // Column-wise probe: hash the key cells straight out of the chunk;
        // materialize the combined row only for surviving matches.
        const BoundStep& bs = *steps_[s];
        StepScratch& ss = scratch[s];
        for (const uint32_t r : sel) {
          ss.matches.clear();
          bs.table->ProbeChunk(chunk, r, bs.probe_keys, &ss.matches);
          if (ss.matches.empty()) continue;
          chunk.CopyRowTo(r, &ss.combined, 0);
          for (int m : ss.matches) {
            bs.build.rel->CopyRowTo(static_cast<size_t>(m), &ss.combined,
                                    bs.left_width);
            PushRow(ss.combined, s + 1, &scratch, sink);
          }
        }
      } else if (s == steps_.size()) {
        // Every step was a filter: copy the survivors' cells column-wise.
        for (const uint32_t r : sel) sink->AppendRowFrom(chunk, r);
      } else {
        for (const uint32_t r : sel) {
          chunk.MaterializeRow(r, &row_scratch);
          PushRow(row_scratch, s, &scratch, sink);
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace rasql::physical
