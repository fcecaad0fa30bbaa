// cac_service: cts_cacd on loopback as a child process, driven closed
// loop by two client threads (one request per connection; a CAC caller
// waits for the verdict before it admits the next connection).  One op
// is one cts.cac.v1 request round trip; items are queries.
//
// This is the only serving path: framing, the daemon's thread per
// connection, JSON, the CacCache lock, and cold CTS scans at random
// buffers rather than sorted grids.  Each round runs a fixed request
// stream against a freshly started daemon, so every round pays the same
// cold scans (the first sight of each key) and the same hits (its
// repeats); set-up, timed before every round, is the daemon start.  The seed draws the order of the stream and how queries are
// grouped into requests; the key space is fixed.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "cts/atm/cac_cache.hpp"
#include "cts/net/cac.hpp"
#include "cts/net/frame.hpp"
#include "cts/net/socket.hpp"
#include "cts/net/stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace net = cts::net;
namespace atm = cts::atm;
namespace fit = cts::fit;

constexpr unsigned kClients = 2;
constexpr std::size_t kQueriesPerRequest = 8;
/// Each key appears this often in a round: once cold, then as hits.
constexpr std::size_t kRepeats = 3;
constexpr double kTimeoutS = 30;

/// A model of the key space; admit_eb goes to SRD models only (for LRD
/// it is a documented per-query error, not a failure).
struct ModelKey {
  net::CacModel model;
  bool srd;
};

std::vector<ModelKey> key_models() {
  auto zoo = [](const char* id, bool srd) {
    ModelKey k{{}, srd};
    k.model.zoo_id = id;
    return k;
  };
  std::vector<ModelKey> out = {zoo("za:0.9", false), zoo("l", false),
                               zoo("vv:0.67", false), zoo("dar:0.9:2", true),
                               zoo("ar1:0.9", true), zoo("white", true)};
  ModelKey geometric{{}, true};
  geometric.model.kind = "geometric";
  geometric.model.mean = 500;
  geometric.model.variance = 5000;
  geometric.model.a = 0.8;
  out.push_back(geometric);
  ModelKey lrd{{}, false};
  lrd.model.kind = "lrd";
  lrd.model.mean = 500;
  lrd.model.variance = 5000;
  lrd.model.hurst = 0.85;
  lrd.model.weight = 0.8;
  out.push_back(lrd);
  return out;
}

/// cts_cacd as a child process, from spawn to its port file.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::string& port_file) {
    ::unlink(port_file.c_str());
    const std::string pf = "--port-file=" + port_file;
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      unpin();  // set-up may run pinned to one CPU; the daemon must not
      const int devnull = ::open("/dev/null", O_WRONLY);
      ::dup2(devnull, 1);
      ::dup2(devnull, 2);
      ::execl(exe.c_str(), "cts_cacd", "serve", "--port=0", pf.c_str(), "--quiet",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    const double deadline = now_s() + kTimeoutS;
    while (now_s() < deadline) {
      std::ifstream in(port_file);
      std::string text((std::istreambuf_iterator<char>(in)), {});
      if (!text.empty() && text.back() == '\n') {
        port_ = static_cast<std::uint16_t>(std::stoul(text));
        return;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("cts_cacd exited before writing its port file");
      }
      ::usleep(200);
    }
    stop();
    throw std::runtime_error("cts_cacd wrote no port file within the timeout");
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }

  /// Peak RSS (MiB) so far, from /proc.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0;
  }

  /// Terminates the daemon and waits for it; returns its CPU seconds.
  double stop() {
    if (pid_ <= 0) return 0;
    ::kill(pid_, SIGTERM);
    int status = 0;
    rusage ru{};
    ::wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    auto tv = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
  }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// What one request round trip measured.
struct Exchange {
  double connect_s = 0, rtt_s = 0, total_s = 0;
  double server_s = 0;
  std::size_t request_bytes = 0;
  bool ok = false;
  net::CacResponse response;
};

/// The in-process reference: the daemon's per-query logic on a CacCache.
net::CacAnswer answer_locally(atm::CacCache& cache, const fit::ModelSpec& model,
                              const net::CacQuery& q) {
  net::CacAnswer a;
  try {
    atm::CacProblem p;
    p.capacity_cells_per_frame = q.capacity;
    p.buffer_cells = q.buffer;
    p.log10_target_clr = q.log10_clr;
    if (q.kind == net::CacQueryKind::kBop) {
      p.validate();
      if (q.interpolate) {
        const auto before = cache.stats().interpolations;
        a.log10_bop = cache.log10_bop_interpolated(model, p, q.n);
        a.interpolated = cache.stats().interpolations > before;
      } else {
        a.log10_bop = cache.log10_bop(model, p, q.n);
      }
    } else {
      const atm::CacResult r = q.kind == net::CacQueryKind::kAdmitBr
                                   ? cache.admissible_br(model, p)
                                   : cache.admissible_eb(model, p);
      a.admissible = r.admissible;
      a.log10_bop = r.log10_bop_at_max;
    }
    a.ok = true;
  } catch (const std::exception& e) {
    a.error = e.what();
  }
  return a;
}

class CacService final : public Workload {
 public:
  explicit CacService(const Options& opt)
      : opt_(opt), port_file_(opt.work_dir + "/cacd.port") {}

  void setup() override {
    for (const ModelKey& mk : key_models()) {
      ScopedSpan span("fit.model_build");
      net::resolve_cac_model(mk.model);
    }
    if (requests_.empty()) build_stream();
    daemon_.reset();
    daemon_ = std::make_unique<Daemon>(opt_.cacd_path, port_file_);
  }

  RoundResult round() override { return run_stream(false); }
  RoundResult traced_round() override { return run_stream(true); }
  unsigned traced_threads() const override { return kClients; }
  void teardown() override { daemon_.reset(); }

  std::vector<Check> checks() override {
    std::vector<Check> out;
    Check wire{"cac.socket_answers_equal_in_process", !first_replies_.empty(), ""};
    atm::CacCache cache;
    std::size_t compared = 0;
    for (std::size_t i = 0; i < first_replies_.size() && wire.ok; ++i) {
      const fit::ModelSpec model = net::resolve_cac_model(requests_[i].model);
      const net::CacResponse& got = first_replies_[i];
      if (got.answers.size() != requests_[i].queries.size()) {
        wire.ok = false;
        wire.detail = "request " + std::to_string(i) + " got no full reply";
        break;
      }
      for (std::size_t k = 0; k < requests_[i].queries.size(); ++k) {
        const net::CacAnswer want = answer_locally(cache, model, requests_[i].queries[k]);
        const net::CacAnswer& a = got.answers[k];
        // Interpolation depends on what two concurrent connections had
        // cached at the time; only exact answers must match bit for bit.
        if (a.interpolated || want.interpolated) continue;
        ++compared;
        if (!a.ok || !want.ok || a.admissible != want.admissible ||
            std::memcmp(&a.log10_bop, &want.log10_bop, sizeof(double)) != 0) {
          wire.ok = false;
          wire.detail = "request " + std::to_string(i) + " query " + std::to_string(k);
        }
      }
    }
    if (wire.ok) wire.detail = std::to_string(compared) + " exact answers compared";
    out.push_back(wire);
    return out;
  }

  std::map<std::string, Metric> layer_metrics(const std::map<std::string, double>& self,
                                              std::size_t rounds) override {
    const double n = static_cast<double>(rounds);
    auto get = [&](const char* k) {
      const auto it = self.find(k);
      return it == self.end() ? 0.0 : it->second;
    };
    std::map<std::string, Metric> m;
    m["fit.model_build_s"] = {get("fit.model_build"), "s"};
    m["net.connect_ms_p50"] = {quantile(connect_ms_, 0.5), "ms"};
    m["net.rtt_ms_p50"] = {quantile(rtt_ms_, 0.5), "ms"};
    m["net.rtt_ms_p99"] = {quantile(rtt_ms_, 0.99), "ms"};
    m["net.server_request_ms_p50"] = {quantile(server_ms_, 0.5), "ms"};
    m["net.server_query_ms_p50"] = {median(server_query_ms_), "ms"};
    m["net.overhead_ms_p50"] = {quantile(overhead_ms_, 0.5), "ms"};
    m["net.encode_us"] = {get("net.encode") / n / static_cast<double>(requests_.size()) * 1e6,
                          "us"};
    m["net.decode_us"] = {get("net.decode") / n / static_cast<double>(requests_.size()) * 1e6,
                          "us"};
    m["net.bytes_per_request"] = {static_cast<double>(request_bytes_) /
                                      static_cast<double>(requests_.size()),
                                  "B"};
    // The same stream replayed in process on a fresh CacCache (single
    // thread, so the counts are exact), then again on the now-full cache:
    // the difference is the cold share, the core/ work of the misses.
    const atm::CacCache::Stats& s = replay_stats_;
    m["atm.cac_hits"] = {static_cast<double>(s.rate_hits), "count"};
    m["atm.cac_misses"] = {static_cast<double>(s.rate_misses), "count"};
    m["atm.cac_hit_ratio"] = {static_cast<double>(s.rate_hits) /
                                  static_cast<double>(s.rate_hits + s.rate_misses),
                              "ratio"};
    m["atm.cac_compute_s"] = {get("atm.cac_replay") / n, "s"};
    m["core.scan_s"] = {(get("atm.cac_replay") - get("probe.cac_warm_replay")) / n, "s"};
    m["core.scan_calls"] = {static_cast<double>(s.rate_misses), "count"};
    return m;
  }

 private:
  /// The fixed key space, each key kRepeats times, shuffled by the seed
  /// and cut into requests of kQueriesPerRequest queries of one model.
  void build_stream() {
    InputRng rng(opt_.seed);
    const std::vector<ModelKey> models = key_models();
    const double capacities[] = {8070, 16140, 24210};
    const std::size_t n_for[] = {10, 20, 28};
    for (const ModelKey& mk : models) {
      std::vector<net::CacQuery> keys;
      for (const double c : capacities) {
        for (int j = 0; j < 12; ++j) {
          net::CacQuery q;
          q.capacity = c;
          q.buffer = 300.0 * std::pow(20.0, j / 11.0) * (c / 16140);
          q.log10_clr = j % 2 == 0 ? -6 : -4;
          q.kind = net::CacQueryKind::kAdmitBr;
          keys.push_back(q);
          q.kind = net::CacQueryKind::kBop;
          q.n = n_for[j % 3] * static_cast<std::size_t>(c / 8070) / 2 + 1;
          keys.push_back(q);
          q.interpolate = true;
          q.n += 1;
          keys.push_back(q);
          if (mk.srd) {
            q = net::CacQuery{};
            q.kind = net::CacQueryKind::kAdmitEb;
            q.capacity = c;
            q.buffer = 300.0 * std::pow(20.0, j / 11.0) * (c / 16140);
            q.log10_clr = -6;
            keys.push_back(q);
          }
        }
      }
      std::vector<net::CacQuery> stream;
      for (std::size_t r = 0; r < kRepeats; ++r) {
        stream.insert(stream.end(), keys.begin(), keys.end());
      }
      rng.shuffle(stream);
      for (std::size_t i = 0; i < stream.size(); i += kQueriesPerRequest) {
        net::CacRequest req;
        req.model = mk.model;
        req.queries.assign(stream.begin() + static_cast<std::ptrdiff_t>(i),
                           stream.begin() + static_cast<std::ptrdiff_t>(
                               std::min(stream.size(), i + kQueriesPerRequest)));
        requests_.push_back(std::move(req));
      }
    }
    rng.shuffle(requests_);
    queries_ = 0;
    for (const net::CacRequest& r : requests_) queries_ += r.queries.size();
  }

  Exchange exchange(const net::Endpoint& ep, const net::CacRequest& request) {
    Exchange x;
    const double t0 = now_s();
    try {
      net::Socket sock;
      {
        ScopedSpan span("net.connect");
        sock = net::connect_to(ep, kTimeoutS);
      }
      const double t1 = now_s();
      std::string text;
      {
        ScopedSpan span("net.encode");
        text = net::write_cac_request_json(request);
      }
      const double t2 = now_s();
      std::string reply;
      {
        ScopedSpan span("wait.round_trip");
        net::send_frame(sock, text, kTimeoutS);
        reply = net::recv_frame(sock, kTimeoutS);
      }
      const double t3 = now_s();
      {
        ScopedSpan span("net.decode");
        x.response = net::parse_cac_response(reply);
      }
      x.connect_s = t1 - t0;
      x.rtt_s = t3 - t2;
      x.server_s = x.response.elapsed_s;
      x.request_bytes = net::encode_frame(text).size();
      x.ok = x.response.ok && x.response.answers.size() == request.queries.size();
      for (const net::CacAnswer& a : x.response.answers) x.ok = x.ok && a.ok;
    } catch (const std::exception&) {
      x.ok = false;
    }
    x.total_s = now_s() - t0;
    return x;
  }

  RoundResult run_stream(bool traced) {
    net::Endpoint ep{"127.0.0.1", daemon_->port()};
    std::vector<Exchange> results(requests_.size());
    std::atomic<std::size_t> next{0};
    auto client = [&] {
      for (std::size_t i; (i = next.fetch_add(1)) < requests_.size();) {
        results[i] = exchange(ep, requests_[i]);
      }
    };
    {
      std::vector<std::thread> pool;
      for (unsigned t = 0; t < kClients; ++t) pool.emplace_back(client);
      ScopedSpan wait("wait.join");
      for (std::thread& t : pool) t.join();
    }
    const double stream_end = now_s();

    RoundResult r;
    r.ops = requests_.size();
    r.items = static_cast<double>(queries_);
    request_bytes_ = 0;
    for (const Exchange& x : results) {
      if (!x.ok) ++r.failed;
      r.op_ms.push_back(x.total_s * 1e3);
      request_bytes_ += x.request_bytes;
      if (traced) {
        connect_ms_.push_back(x.connect_s * 1e3);
        rtt_ms_.push_back(x.rtt_s * 1e3);
        server_ms_.push_back(x.server_s * 1e3);
        overhead_ms_.push_back((x.rtt_s - x.server_s) * 1e3);
      }
    }
    if (first_replies_.empty()) {
      for (const Exchange& x : results) first_replies_.push_back(x.response);
    }
    if (traced) {
      try {
        const net::WorkerStats stats = net::query_stats(ep, kTimeoutS);
        const auto& hist = stats.metrics.log_histograms();
        const auto it = hist.find("cacd.query_wall_ms");
        if (it != hist.end()) server_query_ms_.push_back(it->second.percentile(0.5));
      } catch (const std::exception&) {
        ++r.failed;
      }
      replay();
    }
    // The next set-up starts a fresh daemon; stopping this one is not part
    // of the round's work.
    r.child_rss_mb = daemon_->peak_rss_mb();
    r.child_cpu_s = daemon_->stop();
    r.excluded_s = now_s() - stream_end;
    return r;
  }

  /// In-process replay of the round's stream (see layer_metrics).
  void replay() {
    atm::CacCache cache;
    std::vector<fit::ModelSpec> models;
    for (const net::CacRequest& req : requests_) {
      models.push_back(net::resolve_cac_model(req.model));
    }
    auto pass = [&] {
      for (std::size_t i = 0; i < requests_.size(); ++i) {
        for (const net::CacQuery& q : requests_[i].queries) {
          answer_locally(cache, models[i], q);
        }
      }
    };
    {
      ScopedSpan span("atm.cac_replay");
      pass();
    }
    replay_stats_ = cache.stats();
    ScopedSpan span("probe.cac_warm_replay");
    pass();
  }

  Options opt_;
  std::string port_file_;
  std::unique_ptr<Daemon> daemon_;
  std::vector<net::CacRequest> requests_;
  std::size_t queries_ = 0;
  std::vector<net::CacResponse> first_replies_;
  std::vector<double> connect_ms_, rtt_ms_, server_ms_, overhead_ms_, server_query_ms_;
  std::size_t request_bytes_ = 0;
  atm::CacCache::Stats replay_stats_;
};

}  // namespace

std::unique_ptr<Workload> make_cac_service(const Options& opt) {
  return std::make_unique<CacService>(opt);
}

}  // namespace perfbench
