#include "prob/chow_liu.h"

#include <algorithm>
#include <cmath>

namespace caqp {

namespace {

/// Laplace smoothing added to every marginal and pairwise joint cell.
constexpr double kLaplaceAlpha = 0.5;

/// Smoothed pairwise joint P(X_a, X_b) as a Ka x Kb matrix.
std::vector<std::vector<double>> PairJoint(const Dataset& data, AttrId a,
                                           AttrId b, double alpha) {
  const uint32_t ka = data.schema().domain_size(a);
  const uint32_t kb = data.schema().domain_size(b);
  std::vector<std::vector<double>> joint(ka, std::vector<double>(kb, alpha));
  const auto& ca = data.column(a);
  const auto& cb = data.column(b);
  for (size_t r = 0; r < data.num_rows(); ++r) {
    joint[ca[r]][cb[r]] += 1.0;
  }
  double total = 0.0;
  for (const auto& row : joint) {
    for (double w : row) total += w;
  }
  for (auto& row : joint) {
    for (double& w : row) w /= total;
  }
  return joint;
}

double MutualInformationOf(const std::vector<std::vector<double>>& joint) {
  const size_t ka = joint.size();
  const size_t kb = joint[0].size();
  std::vector<double> pa(ka, 0.0), pb(kb, 0.0);
  for (size_t i = 0; i < ka; ++i) {
    for (size_t j = 0; j < kb; ++j) {
      pa[i] += joint[i][j];
      pb[j] += joint[i][j];
    }
  }
  double mi = 0.0;
  for (size_t i = 0; i < ka; ++i) {
    for (size_t j = 0; j < kb; ++j) {
      const double p = joint[i][j];
      if (p > 0 && pa[i] > 0 && pb[j] > 0) {
        mi += p * std::log(p / (pa[i] * pb[j]));
      }
    }
  }
  return std::max(0.0, mi);
}

}  // namespace

ChowLiuEstimator::ChowLiuEstimator(const Dataset& data, Options opts)
    : schema_(data.schema()), opts_(opts) {
  const size_t n = schema_.num_attributes();
  CAQP_CHECK_GE(n, 1u);
  nodes_.resize(n);

  // Smoothed node marginals.
  for (size_t a = 0; a < n; ++a) {
    const uint32_t k = schema_.domain_size(static_cast<AttrId>(a));
    std::vector<double> m(k, kLaplaceAlpha);
    for (Value v : data.column(static_cast<AttrId>(a))) m[v] += 1.0;
    double total = 0.0;
    for (double w : m) total += w;
    for (double& w : m) w /= total;
    nodes_[a].marginal = std::move(m);
  }

  // Pairwise mutual information; O(n^2) joints, each one dataset pass.
  std::vector<std::vector<double>> mi(n, std::vector<double>(n, 0.0));
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      const double v = MutualInformationOf(
          PairJoint(data, static_cast<AttrId>(a), static_cast<AttrId>(b),
                    kLaplaceAlpha));
      mi[a][b] = mi[b][a] = v;
    }
  }

  // Prim's algorithm for the maximum spanning tree, rooted at attribute 0.
  std::vector<bool> in_tree(n, false);
  std::vector<double> best(n, -1.0);
  std::vector<AttrId> best_parent(n, kInvalidAttr);
  in_tree[0] = true;
  topo_order_.push_back(0);
  for (size_t b = 1; b < n; ++b) {
    best[b] = mi[0][b];
    best_parent[b] = 0;
  }
  for (size_t step = 1; step < n; ++step) {
    size_t pick = 0;
    double pick_mi = -1.0;
    for (size_t b = 0; b < n; ++b) {
      if (!in_tree[b] && best[b] > pick_mi) {
        pick_mi = best[b];
        pick = b;
      }
    }
    in_tree[pick] = true;
    nodes_[pick].parent = best_parent[pick];
    nodes_[pick].edge_mi = pick_mi;
    nodes_[best_parent[pick]].children.push_back(static_cast<AttrId>(pick));
    topo_order_.push_back(static_cast<AttrId>(pick));
    for (size_t b = 0; b < n; ++b) {
      if (!in_tree[b] && mi[pick][b] > best[b]) {
        best[b] = mi[pick][b];
        best_parent[b] = static_cast<AttrId>(pick);
      }
    }
  }

  // Conditional tables P(child | parent) from smoothed pairwise joints.
  for (size_t a = 0; a < n; ++a) {
    Node& node = nodes_[a];
    const uint32_t k = schema_.domain_size(static_cast<AttrId>(a));
    if (node.parent == kInvalidAttr) {
      node.cond.assign(1, node.marginal);
      continue;
    }
    const uint32_t kp = schema_.domain_size(node.parent);
    auto joint = PairJoint(data, node.parent, static_cast<AttrId>(a),
                           kLaplaceAlpha);
    node.cond.assign(kp, std::vector<double>(k, 0.0));
    for (uint32_t pv = 0; pv < kp; ++pv) {
      double rowsum = 0.0;
      for (uint32_t v = 0; v < k; ++v) rowsum += joint[pv][v];
      for (uint32_t v = 0; v < k; ++v) {
        node.cond[pv][v] = rowsum > 0 ? joint[pv][v] / rowsum : 1.0 / k;
      }
    }
  }
}

std::vector<std::vector<double>> ChowLiuEstimator::EvidenceWeights(
    const RangeVec& given) const {
  const size_t n = nodes_.size();
  std::vector<std::vector<double>> w(n);
  // Children before parents: walk topo order backwards.
  for (size_t idx = n; idx-- > 0;) {
    const AttrId a = topo_order_[idx];
    const Node& node = nodes_[a];
    const uint32_t k = schema_.domain_size(a);
    w[a].assign(k, 0.0);
    for (uint32_t v = given[a].lo; v <= given[a].hi; ++v) {
      double prod = 1.0;
      for (AttrId c : node.children) {
        const Node& child = nodes_[c];
        double sum = 0.0;
        for (uint32_t u = given[c].lo; u <= given[c].hi; ++u) {
          sum += child.cond[v][u] * w[c][u];
        }
        prod *= sum;
      }
      w[a][v] = prod;
    }
  }
  return w;
}

Histogram ChowLiuEstimator::Marginal(const RangeVec& given, AttrId attr) {
  CAQP_CHECK(schema_.ValidRanges(given));
  // P(X_attr = v, evidence) = P(v, evidence above attr) * W[attr][v].
  // Computing "evidence above" exactly would need a downward pass; instead we
  // reroot: treat attr as the root of the (undirected) tree and run one
  // upward pass. For simplicity and symmetry we temporarily express the
  // upward pass against the existing rooting using the belief recursion:
  //   P(v, E) = pi(v) * W[attr][v],
  // where pi is obtained by a root-to-attr chain walk.
  const auto w = EvidenceWeights(given);

  // pi[attr][v]: prior-and-upstream-evidence weight. Computed by walking the
  // unique root->attr path, marginalizing intermediate nodes.
  std::vector<AttrId> path;  // attr, parent(attr), ..., root
  for (AttrId a = attr; a != kInvalidAttr; a = nodes_[a].parent) {
    path.push_back(a);
  }
  // Start at the root with its prior restricted by its own evidence and the
  // evidence in subtrees hanging off the path.
  std::vector<double> pi;
  for (size_t i = path.size(); i-- > 0;) {
    const AttrId a = path[i];
    const Node& na = nodes_[a];
    const uint32_t k = schema_.domain_size(a);
    std::vector<double> cur(k, 0.0);
    const AttrId down = (i > 0) ? path[i - 1] : kInvalidAttr;
    for (uint32_t v = given[a].lo; v <= given[a].hi; ++v) {
      double base;
      if (na.parent == kInvalidAttr) {
        base = na.marginal[v];
      } else {
        // Combine with the incoming pi over the parent's values.
        base = 0.0;
        const AttrId p = na.parent;
        for (uint32_t pv = given[p].lo; pv <= given[p].hi; ++pv) {
          base += pi[pv] * na.cond[pv][v];
        }
      }
      // Evidence from child subtrees other than the path continuation.
      double prod = 1.0;
      for (AttrId c : na.children) {
        if (c == down) continue;
        double sum = 0.0;
        for (uint32_t u = given[c].lo; u <= given[c].hi; ++u) {
          sum += nodes_[c].cond[v][u] * w[c][u];
        }
        prod *= sum;
      }
      cur[v] = base * prod;
    }
    pi = std::move(cur);
  }

  // At the last path step (a == attr, down == kInvalidAttr) no child was
  // skipped, so pi[v] already equals P(X_attr = v, evidence) in full.
  Histogram h(schema_.domain_size(attr));
  for (uint32_t v = given[attr].lo; v <= given[attr].hi; ++v) {
    if (pi[v] > 0) h.Add(v, pi[v]);
  }
  return h;
}

double ChowLiuEstimator::ReachProbability(const RangeVec& given) {
  CAQP_CHECK(schema_.ValidRanges(given));
  const auto w = EvidenceWeights(given);
  const AttrId root = topo_order_[0];
  double p = 0.0;
  for (uint32_t v = given[root].lo; v <= given[root].hi; ++v) {
    p += nodes_[root].marginal[v] * w[root][v];
  }
  return p;
}

Tuple ChowLiuEstimator::SampleConditioned(
    const RangeVec& given, const std::vector<std::vector<double>>& weights,
    Rng& rng) const {
  Tuple t(nodes_.size(), 0);
  for (AttrId a : topo_order_) {
    const Node& node = nodes_[a];
    // Unnormalized posterior over values of a given the sampled parent.
    double total = 0.0;
    std::vector<double> mass(given[a].Width(), 0.0);
    for (uint32_t v = given[a].lo; v <= given[a].hi; ++v) {
      const double prior = (node.parent == kInvalidAttr)
                               ? node.marginal[v]
                               : node.cond[t[node.parent]][v];
      mass[v - given[a].lo] = prior * weights[a][v];
      total += mass[v - given[a].lo];
    }
    if (total <= 0) {
      // Evidence with zero model mass (possible only through underflow);
      // fall back to the range's lowest value.
      t[a] = given[a].lo;
      continue;
    }
    double u = rng.Uniform(0.0, total);
    Value chosen = given[a].hi;
    for (uint32_t v = given[a].lo; v <= given[a].hi; ++v) {
      u -= mass[v - given[a].lo];
      if (u <= 0) {
        chosen = v;
        break;
      }
    }
    t[a] = chosen;
  }
  return t;
}

MaskDistribution ChowLiuEstimator::PredicateMasks(
    const RangeVec& given, const std::vector<Predicate>& preds) {
  CAQP_CHECK_LE(preds.size(), 64u);
  const auto w = EvidenceWeights(given);
  Rng rng(opts_.seed ^ RangeVectorHash()(given));
  MaskDistribution dist;
  for (size_t s = 0; s < opts_.sample_count; ++s) {
    const Tuple t = SampleConditioned(given, w, rng);
    dist.Add(PredicateMask(preds, t), 1.0);
  }
  dist.Aggregate();
  return dist;
}

std::vector<MaskDistribution> ChowLiuEstimator::PerValuePredicateMasks(
    const RangeVec& given, AttrId attr, const std::vector<Predicate>& preds) {
  CAQP_CHECK_LE(preds.size(), 64u);
  const ValueRange range = given[attr];
  const auto w = EvidenceWeights(given);
  Rng rng(opts_.seed ^ (RangeVectorHash()(given) * 1315423911ULL) ^ attr);
  std::vector<MaskDistribution> out(range.Width());
  for (size_t s = 0; s < opts_.sample_count; ++s) {
    const Tuple t = SampleConditioned(given, w, rng);
    out[t[attr] - range.lo].Add(PredicateMask(preds, t), 1.0);
  }
  for (MaskDistribution& d : out) d.Aggregate();
  return out;
}

double ChowLiuEstimator::LogLikelihood(const Tuple& t) const {
  CAQP_CHECK(schema_.ValidTuple(t));
  double ll = 0.0;
  for (size_t a = 0; a < nodes_.size(); ++a) {
    const Node& node = nodes_[a];
    const double p = (node.parent == kInvalidAttr)
                         ? node.marginal[t[a]]
                         : node.cond[t[node.parent]][t[a]];
    ll += std::log(std::max(p, 1e-300));
  }
  return ll;
}

}  // namespace caqp
