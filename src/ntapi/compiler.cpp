#include "ntapi/compiler.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/analyzer.hpp"
#include "htpr/false_positive.hpp"
#include "net/headers.hpp"
#include "ntapi/header_space.hpp"
#include "ntapi/p4gen.hpp"

namespace ht::ntapi {

CompileError::CompileError(std::vector<ValidationError> errors)
    : std::runtime_error(format(errors)), errors_(std::move(errors)) {}

std::string CompileError::format(const std::vector<ValidationError>& errors) {
  std::string msg = "task rejected with " + std::to_string(errors.size()) + " error(s):";
  for (const auto& e : errors) msg += "\n  " + e.where + ": " + e.message;
  return msg;
}

namespace {

htps::InverseTransformTable itt_for(const RandomArray& r) {
  switch (r.dist) {
    case RandomArray::Dist::kUniform:
      return htps::InverseTransformTable::uniform(static_cast<std::uint64_t>(r.p1),
                                                  static_cast<std::uint64_t>(r.p2), r.buckets,
                                                  r.rng_bits);
    case RandomArray::Dist::kNormal:
      return htps::InverseTransformTable::normal(r.p1, r.p2, r.buckets, r.rng_bits);
    case RandomArray::Dist::kExponential:
      return htps::InverseTransformTable::exponential(r.p1, r.buckets, r.rng_bits);
  }
  return {};
}

htpr::UpdateFunc to_update_func(Reduce func) {
  switch (func) {
    case Reduce::kSum:
      return htpr::UpdateFunc::kSum;
    case Reduce::kCount:
      return htpr::UpdateFunc::kCount;
    case Reduce::kMax:
      return htpr::UpdateFunc::kMax;
    case Reduce::kMin:
      return htpr::UpdateFunc::kMin;
  }
  return htpr::UpdateFunc::kSum;
}

/// The record schema of a query-based trigger: every query field it
/// references, de-duplicated in reference order.
std::vector<net::FieldId> fifo_lanes(const Trigger& trig) {
  std::vector<net::FieldId> lanes;
  for (const auto& binding : trig.bindings()) {
    if (const auto* ref = std::get_if<QueryFieldRef>(&binding.source)) {
      if (std::find(lanes.begin(), lanes.end(), ref->field) == lanes.end()) {
        lanes.push_back(ref->field);
      }
    }
  }
  return lanes;
}

}  // namespace

htps::TemplateSpec Compiler::build_template_spec(const Task& task, std::size_t trigger_index) {
  const auto& trig = task.triggers()[trigger_index];
  htps::TemplateSpec spec;
  spec.template_id = static_cast<std::uint32_t>(trigger_index);
  spec.l4 = infer_l4(trig);
  spec.payload = trig.payload_bytes();
  if (const auto* b = trig.find(net::FieldId::kPktLen)) {
    if (const auto* v = std::get_if<Value>(&b->source)) {
      spec.pkt_len = std::max<std::size_t>(static_cast<std::size_t>(v->initial_value()),
                                           net::min_packet_size(spec.l4));
    }
  }
  for (const auto& binding : trig.bindings()) {
    if (!net::is_header_field(binding.field)) continue;
    if (const auto* v = std::get_if<Value>(&binding.source)) {
      spec.header_init[binding.field] = v->initial_value();
    }
  }
  return spec;
}

CompiledTask Compiler::compile(const Task& task) const {
  auto errors = validate(task, asic_cfg_);
  if (!errors.empty()) throw CompileError(std::move(errors));

  CompiledTask out = lower(task);

  // Static analysis over the compiled artifacts (htlint): errors reject
  // the task like validation errors do; warnings ride along.
  const auto analyzer = analysis::Analyzer::with_default_passes();
  out.analysis = analyzer.run({task, out, asic_cfg_});
  if (out.analysis.has_errors()) {
    std::vector<ValidationError> analysis_errors;
    for (const auto& d : out.analysis.diagnostics) {
      if (d.severity == analysis::Severity::kError) {
        analysis_errors.push_back({d.where, d.code + ": " + d.message});
      }
    }
    throw CompileError(std::move(analysis_errors));
  }
  for (const auto& d : out.analysis.diagnostics) {
    out.warnings.push_back(analysis::format(d));
  }
  return out;
}

analysis::AnalysisReport Compiler::lint(const Task& task) const {
  auto errors = validate(task, asic_cfg_);
  if (!errors.empty()) {
    // An invalid task cannot be lowered; surface the validation errors
    // in diagnostic form instead.
    analysis::AnalysisReport report;
    for (const auto& e : errors) {
      report.diagnostics.push_back(
          {analysis::Severity::kError, "HT100", e.where, e.message, ""});
    }
    report.sort();
    return report;
  }
  const CompiledTask lowered = lower(task);
  return analysis::Analyzer::with_default_passes().run({task, lowered, asic_cfg_});
}

CompiledTask Compiler::lower(const Task& task) const {
  CompiledTask out;
  out.name = task.name();
  out.ntapi_loc = task.ntapi_loc();
  out.chaos = task.chaos();

  // ---- triggers -> template configurations --------------------------------
  std::vector<htps::TemplateSpec> specs;
  specs.reserve(task.triggers().size());
  for (std::size_t t = 0; t < task.triggers().size(); ++t) {
    specs.push_back(build_template_spec(task, t));
  }

  for (std::size_t t = 0; t < task.triggers().size(); ++t) {
    const auto& trig = task.triggers()[t];
    htps::TemplateConfig cfg;
    cfg.spec = specs[t];

    // Injection ports (the `port` control field; default port 0).
    if (const auto* b = trig.find(net::FieldId::kPort)) {
      if (const auto* v = std::get_if<Value>(&b->source)) {
        std::vector<std::uint64_t> ports;
        v->enumerate(ports, 256);
        for (const auto p : ports) cfg.egress_ports.push_back(static_cast<std::uint16_t>(p));
      }
    }
    if (cfg.egress_ports.empty()) cfg.egress_ports.push_back(0);

    // Rate control: constant interval or a random inter-departure time.
    if (const auto* b = trig.find(net::FieldId::kInterval)) {
      const auto* v = std::get_if<Value>(&b->source);
      if (v != nullptr && v->is_constant()) {
        cfg.interval_ns = v->initial_value();
      } else if (v != nullptr && v->is_random()) {
        const auto& rnd = std::get<RandomArray>(v->get());
        cfg.interval_ns = static_cast<std::uint64_t>(std::llround(rnd.p1));
        cfg.interval_dist = itt_for(rnd);
      }
    }

    // CPS ramp: lower the schedule verbatim; the first step seeds the
    // interval register so non-ramp-aware consumers (resource accounting,
    // the P4 backend) still see a sane base rate.
    if (!trig.ramp().empty()) {
      for (const auto& step : trig.ramp()) {
        cfg.interval_ramp.push_back({step.duration_ns, step.interval_ns});
      }
      cfg.interval_ns = trig.ramp().front().interval_ns;
    }

    // Loop bound: fires = loop * stream length (0 = run forever).
    std::uint64_t stream_len = 1;
    for (const auto& binding : trig.bindings()) {
      if (const auto* v = std::get_if<Value>(&binding.source)) {
        stream_len = std::max(stream_len, v->stream_length());
      }
    }
    if (const auto* b = trig.find(net::FieldId::kLoop)) {
      if (const auto* v = std::get_if<Value>(&b->source)) {
        cfg.fire_limit = v->initial_value() * stream_len;
      }
    }

    // Stateless-connection wiring.
    if (trig.source_query()) {
      cfg.mode = htps::TemplateConfig::Mode::kFifoTriggered;
      out.fifos.push_back(FifoWiring{t, trig.source_query()->index, fifo_lanes(trig)});
    }

    // Editor program: every non-constant header-field binding, in order.
    const auto lanes = fifo_lanes(trig);
    for (const auto& binding : trig.bindings()) {
      if (!net::is_header_field(binding.field)) continue;
      if (const auto* v = std::get_if<Value>(&binding.source)) {
        if (const auto* arr = std::get_if<ValueArray>(&v->get())) {
          cfg.edits.push_back(htps::EditOp{.field = binding.field,
                                           .kind = htps::EditOp::Kind::kList,
                                           .values = arr->values});
        } else if (const auto* range = std::get_if<RangeArray>(&v->get())) {
          cfg.edits.push_back(htps::EditOp{.field = binding.field,
                                           .kind = htps::EditOp::Kind::kRange,
                                           .start = range->start,
                                           .end = range->end,
                                           .step = range->step});
        } else if (const auto* rnd = std::get_if<RandomArray>(&v->get())) {
          cfg.edits.push_back(htps::EditOp{.field = binding.field,
                                           .kind = htps::EditOp::Kind::kRandom,
                                           .distribution = itt_for(*rnd)});
        }
      } else if (const auto* ref = std::get_if<QueryFieldRef>(&binding.source)) {
        const auto lane = static_cast<std::size_t>(
            std::find(lanes.begin(), lanes.end(), ref->field) - lanes.begin());
        cfg.edits.push_back(htps::EditOp{.field = binding.field,
                                         .kind = htps::EditOp::Kind::kFromTrigger,
                                         .trigger_lane = lane,
                                         .trigger_offset = ref->offset});
      } else if (const auto* meta = std::get_if<MetaFieldRef>(&binding.source)) {
        cfg.edits.push_back(htps::EditOp{.field = binding.field,
                                         .kind = htps::EditOp::Kind::kFromMetadata,
                                         .meta_source = meta->field});
      }
    }
    // State-based delay testing: record the egress timestamp per probe.
    for (const auto index_field : trig.timestamp_records()) {
      cfg.edits.push_back(htps::EditOp{.field = index_field,
                                       .kind = htps::EditOp::Kind::kRecordTimestamp,
                                       .state_register = "delaystate." + std::to_string(t)});
    }
    out.templates.push_back(std::move(cfg));
  }

  // ---- queries -> query configurations -------------------------------------
  for (std::size_t q = 0; q < task.queries().size(); ++q) {
    const auto& query = task.queries()[q];
    CompiledQuery cq;
    cq.config.name = "q" + std::to_string(q);
    if (query.monitored_trigger()) {
      cq.config.source = htpr::QueryConfig::Source::kSent;
      cq.config.template_id = static_cast<std::uint32_t>(query.monitored_trigger()->index);
    } else {
      cq.config.source = htpr::QueryConfig::Source::kReceived;
      cq.config.ports = query.ports();
    }
    cq.config.response = query.response();

    std::vector<net::FieldId> key_fields;
    bool keyed_agg = false;
    cq.config.ops.reserve(query.steps().size());
    // In-place construction: no temporary variants (also sidesteps a GCC
    // 12 -Wmaybe-uninitialized false positive on moved variant storage).
    for (const auto& step : query.steps()) {
      if (const auto* f = std::get_if<QFilter>(&step)) {
        auto& op = cq.config.ops.emplace_back(std::in_place_type<htpr::FilterOp>);
        std::get<htpr::FilterOp>(op) = {f->field, f->cmp, f->value, f->on_result};
      } else if (const auto* m = std::get_if<QMap>(&step)) {
        key_fields = m->keys;
        auto& op = std::get<htpr::MapOp>(
            cq.config.ops.emplace_back(std::in_place_type<htpr::MapOp>));
        op.keys = m->keys;
        op.value_field = m->value_field;
        op.minus_field = m->minus_field;
        if (m->state_trigger) {
          op.state_register = "delaystate." + std::to_string(m->state_trigger->index);
          op.state_index_field = m->state_index_field;
        }
      } else if (const auto* r = std::get_if<QReduce>(&step)) {
        auto& op = cq.config.ops.emplace_back(std::in_place_type<htpr::ReduceOp>);
        std::get<htpr::ReduceOp>(op).func = to_update_func(r->func);
        keyed_agg = keyed_agg || !key_fields.empty();
      } else if (std::holds_alternative<QDistinct>(step)) {
        cq.config.ops.emplace_back(std::in_place_type<htpr::DistinctOp>);
        keyed_agg = keyed_agg || !key_fields.empty();
      }
    }

    if (keyed_agg) {
      cq.config.store.hash.digest_bits = query.store_digest_bits();
      cq.config.store.hash.buckets = query.store_buckets();
      cq.config.store.eviction_digest_type = 100 + static_cast<std::uint32_t>(q);

      // False-positive precomputation (Fig 4): enumerate the global header
      // space and install one key of each collision cluster exactly.
      auto hash = cq.config.store.hash;
      hash.key_fields = key_fields;
      const KeySpace space = enumerate_key_space(task, query, key_fields, specs, key_space_cap);
      cq.key_space_size = space.size();
      if (space.exact) {
        auto collisions = htpr::analyze_collisions(hash, space.words, space.arity);
        cq.exact_keys = std::move(collisions.exact_keys);
        cq.config.store.exact_capacity =
            std::max<std::size_t>(cq.exact_keys.size() * 2, 1024);
      } else {
        cq.false_positive_free = false;
        out.warnings.push_back("query[" + std::to_string(q) +
                               "]: key space not enumerable; running without "
                               "false-positive guarantees");
      }
    }
    out.queries.push_back(std::move(cq));
  }

  // ---- P4 program -----------------------------------------------------------
  out.p4_source = generate_p4(task, out);
  out.p4_loc = count_p4_loc(out.p4_source);

  // ---- fast-path fusion plan ------------------------------------------------
  // Decided at compile time so the HT205 lint pass can report blockers and
  // HyperTester::load() can bind the fused engine without re-analysis.
  std::vector<htpr::QueryConfig> qcfgs;
  qcfgs.reserve(out.queries.size());
  for (const auto& cq : out.queries) qcfgs.push_back(cq.config);
  out.fused = rmt::fastpath::analyze(out.templates, qcfgs);
  return out;
}

void CompiledTask::annotate_trace(telemetry::TraceRecorder& tr, std::uint64_t now_ns) const {
  tr.set_process_name("hypertester: " + name);
  tr.instant("load task '" + name + "'", now_ns, telemetry::TraceRecorder::kTrackTask);
  for (std::size_t t = 0; t < templates.size(); ++t) {
    tr.instant("install trigger " + std::to_string(t), now_ns,
               telemetry::TraceRecorder::kTrackTask);
  }
  for (const CompiledQuery& q : queries) {
    tr.instant("install query '" + q.config.name + "'", now_ns,
               telemetry::TraceRecorder::kTrackTask);
  }
  for (const FifoWiring& w : fifos) {
    tr.instant("wire trigger " + std::to_string(w.trigger_index) + " <- query " +
                   std::to_string(w.query_index),
               now_ns, telemetry::TraceRecorder::kTrackTask);
  }
}

}  // namespace ht::ntapi
