#include "plan/plan_serde.h"

#include "plan/plan_verify.h"

namespace caqp {

namespace {

/// Ceiling on decoded node counts; far above any plan the planners emit,
/// low enough that a corrupted varint cannot drive a huge allocation.
constexpr uint64_t kMaxPlanNodes = 1u << 20;

void SerializePredicate(const Predicate& p, ByteWriter* w) {
  w->PutVarint(p.attr);
  w->PutVarint(p.lo);
  w->PutVarint(p.hi);
  w->PutU8(p.negated ? 1 : 0);
}

Status ParsePredicate(ByteReader* r, const Schema& schema, Predicate* out) {
  uint64_t attr, lo, hi;
  uint8_t neg;
  CAQP_RETURN_IF_ERROR(r->GetVarint(&attr));
  CAQP_RETURN_IF_ERROR(r->GetVarint(&lo));
  CAQP_RETURN_IF_ERROR(r->GetVarint(&hi));
  CAQP_RETURN_IF_ERROR(r->GetU8(&neg));
  if (attr >= schema.num_attributes()) {
    return Status::DataLoss("predicate attribute out of schema");
  }
  if (lo > hi || hi >= schema.domain_size(static_cast<AttrId>(attr))) {
    return Status::DataLoss("predicate range out of domain");
  }
  *out = Predicate(static_cast<AttrId>(attr), static_cast<Value>(lo),
                   static_cast<Value>(hi), neg != 0);
  return Status::OK();
}

Status ParseGenericPayload(ByteReader* r, const Schema& schema,
                           std::vector<AttrId>* order, Query* query) {
  uint64_t order_count;
  CAQP_RETURN_IF_ERROR(r->GetVarint(&order_count));
  if (order_count > schema.num_attributes()) {
    return Status::DataLoss("acquire order longer than schema");
  }
  order->resize(order_count);
  for (uint64_t i = 0; i < order_count; ++i) {
    uint64_t a;
    CAQP_RETURN_IF_ERROR(r->GetVarint(&a));
    if (a >= schema.num_attributes()) {
      return Status::DataLoss("acquire order attr out of schema");
    }
    (*order)[i] = static_cast<AttrId>(a);
  }
  uint64_t nconj;
  CAQP_RETURN_IF_ERROR(r->GetVarint(&nconj));
  if (nconj == 0 || nconj > 1024) {
    return Status::DataLoss("bad conjunct count");
  }
  std::vector<Conjunct> conjuncts(nconj);
  for (uint64_t ci = 0; ci < nconj; ++ci) {
    uint64_t count;
    CAQP_RETURN_IF_ERROR(r->GetVarint(&count));
    if (count == 0 || count > schema.num_attributes()) {
      return Status::DataLoss("bad conjunct size");
    }
    conjuncts[ci].resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      CAQP_RETURN_IF_ERROR(ParsePredicate(r, schema, &conjuncts[ci][i]));
    }
  }
  *query = Query::Disjunction(std::move(conjuncts));
  return Status::OK();
}

/// Verifies the node array is the preorder flattening of exactly one binary
/// tree rooted at 0 with lt == i + 1: a single linear walk (node order IS
/// traversal order) with a stack of pending ">=" child starts. Rejects
/// shared children, cycles, dangling nodes, and over-deep nesting.
Status ValidateTopology(const std::vector<CompiledPlan::Node>& nodes) {
  const uint32_t count = static_cast<uint32_t>(nodes.size());
  std::vector<uint32_t> pending_ge;
  uint32_t i = 0;
  while (true) {
    const CompiledPlan::Node& n = nodes[i];
    if (n.kind == CompiledPlan::Kind::kSplit) {
      if (n.a <= i + 1 || n.a >= count) {
        return Status::DataLoss("split child index out of range");
      }
      if (pending_ge.size() >= 512) {
        return Status::DataLoss("plan nesting too deep");
      }
      pending_ge.push_back(n.a);
      ++i;  // the "<" subtree starts at the next node
    } else {
      const uint32_t end = i + 1;  // a leaf closes the current subtree
      if (pending_ge.empty()) {
        if (end != count) return Status::DataLoss("dangling plan nodes");
        return Status::OK();
      }
      if (pending_ge.back() != end) {
        return Status::DataLoss("malformed preorder layout");
      }
      pending_ge.pop_back();
      i = end;  // enter the matching ">=" subtree
    }
  }
}

}  // namespace

std::vector<uint8_t> SerializePlan(const CompiledPlan& plan) {
  ByteWriter w;
  w.PutU8(kPlanWireFormatVersion);
  w.PutVarint(plan.NumNodes());
  for (uint32_t i = 0; i < plan.NumNodes(); ++i) {
    const CompiledPlan::Node& n = plan.node(i);
    w.PutU8(static_cast<uint8_t>(n.kind));
    switch (n.kind) {
      case CompiledPlan::Kind::kSplit:
        w.PutVarint(n.attr);
        w.PutVarint(n.split_value);
        w.PutVarint(n.a);
        break;
      case CompiledPlan::Kind::kVerdict:
        w.PutU8(n.verdict() ? 1 : 0);
        break;
      case CompiledPlan::Kind::kSequential: {
        w.PutVarint(n.b);
        for (const Predicate& p : plan.sequence(n)) SerializePredicate(p, &w);
        break;
      }
      case CompiledPlan::Kind::kGeneric: {
        w.PutVarint(n.b);
        for (AttrId a : plan.acquire_order(n)) w.PutVarint(a);
        const auto& conjuncts = plan.residual_query(n).conjuncts();
        w.PutVarint(conjuncts.size());
        for (const Conjunct& c : conjuncts) {
          w.PutVarint(c.size());
          for (const Predicate& p : c) SerializePredicate(p, &w);
        }
        break;
      }
    }
  }
  return w.bytes();
}

std::vector<uint8_t> SerializePlan(const Plan& plan) {
  return SerializePlan(CompiledPlan::Compile(plan));
}

size_t PlanSizeBytes(const CompiledPlan& plan) {
  return SerializePlan(plan).size();
}

size_t PlanSizeBytes(const Plan& plan) { return SerializePlan(plan).size(); }

Result<CompiledPlan> DeserializeCompiledPlan(
    const std::vector<uint8_t>& bytes, const Schema& schema) {
  if (bytes.empty()) return Status::DataLoss("empty plan bytes");
  if (bytes[0] != kPlanWireFormatVersion) {
    return Status::DataLoss("unknown plan format version");
  }

  ByteReader r(bytes);
  uint8_t version;
  CAQP_RETURN_IF_ERROR(r.GetU8(&version));
  uint64_t count;
  CAQP_RETURN_IF_ERROR(r.GetVarint(&count));
  if (count == 0 || count > kMaxPlanNodes) {
    return Status::DataLoss("bad plan node count");
  }

  CompiledPlan plan{CompiledPlan::RawTag{}};
  plan.nodes_.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    CompiledPlan::Node& n = plan.nodes_[i];
    uint8_t kind;
    CAQP_RETURN_IF_ERROR(r.GetU8(&kind));
    if (kind > 3) return Status::DataLoss("unknown plan node kind");
    n.kind = static_cast<CompiledPlan::Kind>(kind);
    switch (n.kind) {
      case CompiledPlan::Kind::kSplit: {
        uint64_t attr, x, ge;
        CAQP_RETURN_IF_ERROR(r.GetVarint(&attr));
        CAQP_RETURN_IF_ERROR(r.GetVarint(&x));
        CAQP_RETURN_IF_ERROR(r.GetVarint(&ge));
        if (attr >= schema.num_attributes()) {
          return Status::DataLoss("split attribute out of schema");
        }
        if (x < 1 || x >= schema.domain_size(static_cast<AttrId>(attr))) {
          return Status::DataLoss("split value out of domain");
        }
        if (ge >= count) {
          return Status::DataLoss("split child index out of range");
        }
        n.attr = static_cast<AttrId>(attr);
        n.split_value = static_cast<Value>(x);
        n.a = static_cast<uint32_t>(ge);
        break;
      }
      case CompiledPlan::Kind::kVerdict: {
        uint8_t v;
        CAQP_RETURN_IF_ERROR(r.GetU8(&v));
        if (v > 1) return Status::DataLoss("bad verdict byte");
        if (v == 1) n.flags = CompiledPlan::kFlagVerdict;
        break;
      }
      case CompiledPlan::Kind::kSequential: {
        uint64_t pcount;
        CAQP_RETURN_IF_ERROR(r.GetVarint(&pcount));
        if (pcount > schema.num_attributes()) {
          return Status::DataLoss("sequential leaf longer than schema");
        }
        n.a = static_cast<uint32_t>(plan.predicates_.size());
        n.b = static_cast<uint32_t>(pcount);
        plan.predicates_.resize(plan.predicates_.size() + pcount);
        for (uint64_t k = 0; k < pcount; ++k) {
          CAQP_RETURN_IF_ERROR(
              ParsePredicate(&r, schema, &plan.predicates_[n.a + k]));
        }
        break;
      }
      case CompiledPlan::Kind::kGeneric: {
        if (plan.queries_.size() >= 65536) {
          return Status::DataLoss("too many generic leaves");
        }
        std::vector<AttrId> order;
        Query query;
        CAQP_RETURN_IF_ERROR(ParseGenericPayload(&r, schema, &order, &query));
        n.aux = static_cast<uint16_t>(plan.queries_.size());
        plan.queries_.push_back(std::move(query));
        n.a = static_cast<uint32_t>(plan.order_.size());
        n.b = static_cast<uint32_t>(order.size());
        plan.order_.insert(plan.order_.end(), order.begin(), order.end());
        break;
      }
    }
  }
  if (!r.AtEnd()) return Status::DataLoss("trailing bytes after plan");
  CAQP_RETURN_IF_ERROR(ValidateTopology(plan.nodes_));
  plan.FinishFromNodes();
  // Field-level checks above catch most corruption; this closes the
  // structural gaps (e.g. a generic leaf whose acquire order no longer
  // covers its residual query, which would stall the executor).
  if (!PlanIsWellFormed(plan, schema)) {
    return Status::DataLoss("decoded plan fails well-formedness checks");
  }
  return plan;
}

Result<Plan> DeserializePlan(const std::vector<uint8_t>& bytes,
                             const Schema& schema) {
  Result<CompiledPlan> compiled = DeserializeCompiledPlan(bytes, schema);
  if (!compiled.ok()) return compiled.status();
  return compiled->ToTree();
}

}  // namespace caqp
