// analytic_sweep: sim::br_curve + sim::large_n_curve over a dense buffer
// grid, one op per (model, c) pair, every curve from a fresh RateFunction.
//
// The core/ layer (V(m) table build, CTS argmin, B-R / large-N assembly)
// does nearly all the work: no frames, no sockets.  Bandwidths run from
// near the mean (long critical time scales, large V(m) tables) to well
// above it.  Items are curve points.

#include <cstring>
#include <string>
#include <vector>

#include "cts/core/br_asymptotic.hpp"
#include "cts/core/large_n.hpp"
#include "cts/core/rate_function.hpp"
#include "cts/core/simd.hpp"
#include "cts/sim/curves.hpp"
#include "cts/sim/scenario_run.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = cts::core;
namespace sim = cts::sim;
namespace fit = cts::fit;

/// One op per model, each at a fixed per-source bandwidth c (cells/frame;
/// the mean is 500).  Near the mean the CTS is long and the V(m) tables
/// large: one c = 510 op costs about as much as eight at c = 560 and is
/// memory-bound, the part of the round most sensitive to other tenants
/// of the host.  One such op keeps the large-table case in every round
/// (~1.3 s here) without letting it dominate.
struct ZooOp {
  const char* id;
  double c;
};
const ZooOp kZooOps[] = {{"za:0.9", 510.0},     {"farima:0.3", 526.0},
                         {"vv:0.67", 526.0},    {"l", 538.0},
                         {"mginf:1.4", 538.0},  {"dar:0.9:3", 560.0},
                         {"ar1:0.975", 560.0}};
/// Bandwidth of the two seeded inline models (geometric, exact LRD): far
/// from the mean, so their V(m) tables stay well below the zoo's largest
/// and the seed cannot move max_rss_mb.
constexpr double kInlineC = 560.0;
constexpr std::size_t kGridPoints = 1500;
constexpr std::size_t kSources = 30;
/// Grid points per curve re-evaluated by the cold scalar reference.
constexpr std::size_t kSampledPoints = 6;

struct Op {
  std::size_t model = 0;
  double c = 0;
};

struct Curves {
  sim::AnalyticCurve br;
  sim::AnalyticCurve large_n;
};

std::uint64_t digest_of(const Curves& c) {
  Digest d;
  for (const sim::AnalyticCurve* curve : {&c.br, &c.large_n}) {
    for (const double x : curve->log10_bop) d.add(x);
    for (const std::size_t m : curve->critical_m) d.add(std::uint64_t{m});
  }
  return d.value();
}

class AnalyticSweep final : public Workload {
 public:
  explicit AnalyticSweep(const Options& opt) : opt_(opt) {}

  void setup() override {
    InputRng rng(opt_.seed);
    models_.clear();
    ops_.clear();
    for (const ZooOp& z : kZooOps) {
      ScopedSpan span("fit.model_build");
      ops_.push_back({models_.size(), z.c});
      models_.push_back(fit::model_from_id(z.id));
    }
    // Two seeded inline models: a Markov (geometric ACF) and an exact-LRD
    // one, resolved the way a scenario spec resolves them.  The seed moves
    // their parameters only a little: the scan length grows like
    // H / (1 - H), and a round must cost the same on every seed.
    sim::ScenarioModel geometric;
    geometric.kind = "geometric";
    geometric.mean = 500;
    geometric.variance = 5000;
    geometric.a = rng.uniform(0.85, 0.95);
    sim::ScenarioModel lrd;
    lrd.kind = "lrd";
    lrd.mean = 500;
    lrd.variance = 5000;
    lrd.hurst = rng.uniform(0.82, 0.84);
    lrd.weight = rng.uniform(0.6, 0.8);
    for (const sim::ScenarioModel* m : {&geometric, &lrd}) {
      ScopedSpan span("fit.model_build");
      ops_.push_back({models_.size(), kInlineC});
      models_.push_back(sim::resolve_scenario_model(*m));
    }
    // The grid is not seeded: shifting its points changes the sequence of
    // V(m) table growths, and with it the allocator's peak (max_rss_mb
    // moved 21-28 MiB across seeds when the grid start was seeded).
    grid_ = sim::buffer_grid_ms(0.5, 2000, kGridPoints);
  }

  RoundResult round() override {
    RoundResult r;
    std::vector<std::uint64_t> digests;
    for (const Op& op : ops_) {
      const double t0 = now_s();
      Curves curves;
      const sim::MuxGeometry g = geometry(op);
      curves.br = sim::br_curve(models_[op.model], g, grid_);
      curves.large_n = sim::large_n_curve(models_[op.model], g, grid_);
      r.op_ms.push_back((now_s() - t0) * 1e3);
      digests.push_back(digest_of(curves));
      if (reference_.size() < ops_.size()) reference_.push_back(std::move(curves));
    }
    account(r, digests);
    return r;
  }

  RoundResult traced_round() override {
    RoundResult r;
    std::vector<std::uint64_t> digests;
    for (const Op& op : ops_) {
      const double t0 = now_s();
      Curves curves;
      double probe = 0;
      curves.br = decomposed(op, true, &probe);
      curves.large_n = decomposed(op, false, &probe);
      r.excluded_s += probe;
      r.op_ms.push_back((now_s() - t0 - probe) * 1e3);
      digests.push_back(digest_of(curves));
    }
    account(r, digests);
    return r;
  }

  unsigned traced_threads() const override { return 1; }

  std::vector<Check> checks() override {
    std::vector<Check> out;
    Check mono{"analytic.monotone_in_b", true, ""};
    for (std::size_t i = 0; i < reference_.size(); ++i) {
      for (const sim::AnalyticCurve* c : {&reference_[i].br, &reference_[i].large_n}) {
        for (std::size_t k = 1; k < c->critical_m.size(); ++k) {
          if (c->critical_m[k] < c->critical_m[k - 1] ||
              c->log10_bop[k] > c->log10_bop[k - 1]) {
            mono.ok = false;
            mono.detail = models_[ops_[i].model].name + " c=" +
                          std::to_string(ops_[i].c) + " point " + std::to_string(k);
          }
        }
      }
    }
    out.push_back(mono);

    // Sampled points against a cold, unhinted, forced-scalar scan.
    Check cold{"analytic.cold_scalar_bit_identity", true, ""};
    InputRng rng(opt_.seed ^ 0xC01DULL);
    core::simd::force(core::simd::Kind::kScalar);
    for (std::size_t i = 0; i < reference_.size(); ++i) {
      const fit::ModelSpec& model = models_[ops_[i].model];
      const sim::MuxGeometry g = geometry(ops_[i]);
      for (std::size_t s = 0; s < kSampledPoints; ++s) {
        const std::size_t k = rng.index(grid_.size());
        const double b = g.buffer_ms_to_cells(grid_[k]) / static_cast<double>(kSources);
        const core::RateFunction rate(model.acf, model.mean, model.variance, ops_[i].c);
        const core::RateResult res = rate.evaluate(b);
        const core::BopPoint br = core::br_log10_bop(res, b, kSources);
        const core::BopPoint ln = core::large_n_log10_bop(res, b, kSources);
        const Curves& c = reference_[i];
        if (std::memcmp(&br.log10_bop, &c.br.log10_bop[k], sizeof(double)) != 0 ||
            std::memcmp(&ln.log10_bop, &c.large_n.log10_bop[k], sizeof(double)) != 0 ||
            res.critical_m != c.br.critical_m[k] ||
            res.critical_m != c.large_n.critical_m[k]) {
          cold.ok = false;
          cold.detail = model.name + " c=" + std::to_string(ops_[i].c) +
                        " point " + std::to_string(k);
        }
      }
    }
    core::simd::clear_force();
    out.push_back(cold);
    out.push_back({"analytic.repeatable_and_traced_identical", mismatches_ == 0,
                   std::to_string(mismatches_) + " curve digest mismatches"});
    return out;
  }

  std::map<std::string, Metric> layer_metrics(const std::map<std::string, double>& self,
                                              std::size_t rounds) override {
    const double n = static_cast<double>(rounds);
    auto get = [&](const char* k) {
      const auto it = self.find(k);
      return it == self.end() ? 0.0 : it->second / n;
    };
    std::map<std::string, Metric> m;
    const auto build = self.find("fit.model_build");
    m["fit.model_build_s"] = {build == self.end() ? 0.0 : build->second, "s"};
    const double cold = get("core.grid");
    const double warm = get("probe.regrid");
    m["core.vtable_s"] = {cold - warm, "s"};
    m["core.scan_s"] = {warm, "s"};
    m["core.assembly_s"] = {get("core.assembly"), "s"};
    m["core.scan_calls"] = {static_cast<double>(scan_calls_) / n, "count"};
    m["core.vtable_entries"] = {static_cast<double>(vtable_entries_) / n, "count"};
    return m;
  }

 private:
  sim::MuxGeometry geometry(const Op& op) const {
    sim::MuxGeometry g;
    g.n_sources = kSources;
    g.bandwidth_per_source = op.c;
    return g;
  }

  /// The same computation as sim::br_curve / sim::large_n_curve, split at
  /// the layer boundaries: the grid of CTS scans on a fresh RateFunction
  /// (V(m) growth + argmin), then the BOP assembly from each RateResult.
  /// A warm regrid on the same tables, a probe, separates the two parts
  /// of the scan time.
  sim::AnalyticCurve decomposed(const Op& op, bool bahadur_rao, double* probe_s) {
    const fit::ModelSpec& model = models_[op.model];
    const sim::MuxGeometry g = geometry(op);
    const core::RateFunction rate(model.acf, model.mean, model.variance, op.c);
    std::vector<double> b(grid_.size());
    std::vector<core::RateResult> res(grid_.size());
    {
      ScopedSpan span("core.grid");
      std::size_t hint = 1;
      double prev = 0;
      for (std::size_t k = 0; k < grid_.size(); ++k) {
        b[k] = g.buffer_ms_to_cells(grid_[k]) / static_cast<double>(kSources);
        if (b[k] < prev) hint = 1;
        res[k] = rate.evaluate(b[k], hint);
        hint = res[k].critical_m;
        prev = b[k];
      }
    }
    sim::AnalyticCurve curve;
    curve.model = model.name;
    curve.buffer_ms = grid_;
    {
      ScopedSpan span("core.assembly");
      for (std::size_t k = 0; k < grid_.size(); ++k) {
        const core::BopPoint p = bahadur_rao
                                     ? core::br_log10_bop(res[k], b[k], kSources)
                                     : core::large_n_log10_bop(res[k], b[k], kSources);
        curve.log10_bop.push_back(p.log10_bop);
        curve.critical_m.push_back(p.critical_m);
      }
    }
    scan_calls_ += grid_.size();
    vtable_entries_ += rate.variance_growth().table_size();
    ScopedSpan span("probe.regrid");
    std::size_t hint = 1;
    for (std::size_t k = 0; k < grid_.size(); ++k) {
      hint = rate.evaluate(b[k], hint).critical_m;
    }
    *probe_s += span.elapsed();
    return curve;
  }

  void account(RoundResult& r, const std::vector<std::uint64_t>& digests) {
    r.ops = ops_.size();
    r.items = static_cast<double>(ops_.size() * 2 * grid_.size());
    if (digests_.empty()) digests_ = digests;
    if (digests != digests_) ++mismatches_;
  }

  Options opt_;
  std::vector<fit::ModelSpec> models_;
  std::vector<double> grid_;
  std::vector<Op> ops_;
  std::vector<Curves> reference_;
  std::vector<std::uint64_t> digests_;
  std::size_t mismatches_ = 0;
  std::uint64_t scan_calls_ = 0;
  std::uint64_t vtable_entries_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_analytic_sweep(const Options& opt) {
  return std::make_unique<AnalyticSweep>(opt);
}

}  // namespace perfbench
