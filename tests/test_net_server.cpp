// net::Server in-process, with a fake handler on loopback:
//
//   * run() never returns while a handler is still running, even with the
//     reply budget spent, and returns promptly once that handler is done;
//   * a stats query is answered while a handler is busy;
//   * a client that drops mid-request leaves nothing in flight and counts
//     the request as served and failed;
//   * the OpenMetrics reply uses the configured metric prefix and unit.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>

#include "cts/net/server.hpp"
#include "cts/net/socket.hpp"
#include "cts/net/stats.hpp"

namespace net = cts::net;

namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

constexpr double kIoTimeoutS = 10.0;

/// A fake daemon.  "block" and "drop" requests wait until release(); "drop"
/// then answers with a reply too large to vanish into socket buffers.
/// Anything else is echoed at once.
class Fake {
 public:
  void handle(net::Exchange& exchange) {
    const std::string& request = exchange.request();
    if (request == "block" || request == "drop") {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      // Bounded, so a failing test cannot hang the suite.
      cv_.wait_for(lock, seconds(20), [this] { return released_; });
    }
    if (request == "drop") {
      exchange.reply(std::string(8u << 20, 'x'), true);
    } else {
      exchange.reply("echo:" + request, true);
    }
  }

  void wait_entered(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    ASSERT_TRUE(cv_.wait_for(lock, seconds(10), [&] { return entered_ >= n; }))
        << "handler never entered";
  }

  void release() {
    const std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool released_ = false;
};

net::ServerConfig config(long long budget) {
  net::ServerConfig cfg;
  cfg.tool = "fake_daemon";
  cfg.prefix = "fake";
  cfg.unit = "widget";
  cfg.budget = budget;
  cfg.quiet = true;
  return cfg;
}

/// A Server running on its own thread.  On destruction it releases the
/// fake and spends whatever budget is left, so a failed assertion ends the
/// test instead of hanging it.
class Running {
 public:
  explicit Running(long long budget) : server_(config(budget)) {
    net::Service service;
    service.handle = [this](net::Exchange& ex) { fake.handle(ex); };
    done = std::async(std::launch::async,
                      [this, service] { return server_.run(service); });
  }
  ~Running() {
    fake.release();
    while (done.valid() &&
           done.wait_for(milliseconds(50)) != std::future_status::ready) {
      try {
        ask("spend");
      } catch (const net::NetError&) {
      }
    }
  }

  net::Endpoint endpoint() const { return {"127.0.0.1", server_.port()}; }

  net::Socket send(const std::string& request) const {
    net::Socket conn = net::connect_to(endpoint(), kIoTimeoutS);
    net::send_frame(conn, request, kIoTimeoutS);
    return conn;
  }

  std::string ask(const std::string& request) const {
    return net::recv_frame(send(request), kIoTimeoutS);
  }

  Fake fake;
  std::future<int> done;

 private:
  net::Server server_;
};

TEST(NetServer, RunJoinsHandlerStillRunningAfterBudgetIsSpent) {
  Running running(1);
  const net::Socket blocked = running.send("block");
  running.fake.wait_entered(1);
  EXPECT_EQ(running.ask("quick"), "echo:quick");  // spends the budget

  // The accept loop stops within its 0.25 s poll, but run() must wait for
  // the blocked handler.
  EXPECT_EQ(running.done.wait_for(seconds(1)), std::future_status::timeout);

  running.fake.release();
  EXPECT_EQ(net::recv_frame(blocked, kIoTimeoutS), "echo:block");
  ASSERT_EQ(running.done.wait_for(seconds(5)), std::future_status::ready);
  EXPECT_EQ(running.done.get(), 0);
}

TEST(NetServer, StatsAreAnsweredWhileAHandlerIsBusy) {
  Running running(1);
  const net::Socket blocked = running.send("block");
  running.fake.wait_entered(1);

  const net::WorkerStats stats =
      net::query_stats(running.endpoint(), kIoTimeoutS);
  EXPECT_EQ(stats.worker,
            "fake_daemon:" + std::to_string(running.endpoint().port));
  EXPECT_EQ(stats.jobs_in_flight, 1u);
  EXPECT_EQ(stats.jobs_ok, 0u);
  EXPECT_EQ(stats.stats_served, 1u);

  running.fake.release();
  EXPECT_EQ(net::recv_frame(blocked, kIoTimeoutS), "echo:block");
  EXPECT_EQ(running.done.wait_for(seconds(5)), std::future_status::ready);
}

TEST(NetServer, DroppedClientIsServedAndFailedWithNothingInFlight) {
  Running running(2);
  {
    net::Socket dropped = running.send("drop");
    running.fake.wait_entered(1);
    // Abortive close: the peer sees a reset, so the reply write fails.
    const linger abort_on_close{1, 0};
    ::setsockopt(dropped.fd(), SOL_SOCKET, SO_LINGER, &abort_on_close,
                 sizeof(abort_on_close));
  }
  running.fake.release();

  net::WorkerStats stats;
  for (int i = 0; i < 100; ++i) {
    stats = net::query_stats(running.endpoint(), kIoTimeoutS);
    if (stats.jobs_failed > 0) break;
    std::this_thread::sleep_for(milliseconds(50));
  }
  EXPECT_EQ(stats.jobs_in_flight, 0u);
  EXPECT_EQ(stats.jobs_ok, 0u);
  EXPECT_EQ(stats.jobs_failed, 1u);

  // One more reply spends a budget of two only if the dropped request
  // was counted as served.
  EXPECT_EQ(running.ask("quick"), "echo:quick");
  EXPECT_EQ(running.done.wait_for(seconds(5)), std::future_status::ready);
}

TEST(NetServer, OpenMetricsUsesTheConfiguredPrefixAndUnit) {
  Running running(1);
  const std::string text =
      net::query_stats_openmetrics(running.endpoint(), kIoTimeoutS);
  EXPECT_NE(text.find("fake_widgets_in_flight"), std::string::npos) << text;
  EXPECT_NE(text.find("fake_uptime_s"), std::string::npos) << text;
  EXPECT_NE(text.find("fake_stats_served_total"), std::string::npos) << text;
  EXPECT_NE(text.find("worker=\"fake_daemon:"), std::string::npos) << text;

  EXPECT_EQ(running.ask("quick"), "echo:quick");
  EXPECT_EQ(running.done.wait_for(seconds(5)), std::future_status::ready);
}

}  // namespace
