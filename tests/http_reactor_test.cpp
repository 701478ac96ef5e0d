// Regression tests for the epoll-reactor TcpServer and the keep-alive
// TcpClient pool: the idle-keep-alive Stop() hang, the EMFILE accept spin,
// the unbounded request buffer, and the broken-parse connection-discard bug,
// plus pipelining/split-read/keep-alive-reuse/Stop-during-inflight coverage.
// All of these run under the TSan/ASan CI jobs.
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/qos.hpp"
#include "http/message.hpp"
#include "http/server.hpp"
#include "http/wire.hpp"

namespace ofmf::http {
namespace {

using ::testing::HasSubstr;

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

void SendAll(int fd, const std::string& wire) {
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
}

/// Reads responses off `fd` until `count` parsed or the peer closes.
std::vector<Response> ReadResponses(int fd, std::size_t count,
                                    std::size_t read_chunk = 4096) {
  WireParser parser(WireParser::Mode::kResponse);
  std::vector<Response> responses;
  std::vector<char> buffer(read_chunk);
  while (responses.size() < count) {
    const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
    if (n <= 0) break;
    parser.Feed(std::string_view(buffer.data(), static_cast<std::size_t>(n)));
    while (parser.HasMessage()) {
      auto response = parser.TakeResponse();
      if (!response.ok()) return responses;
      responses.push_back(*response);
    }
  }
  return responses;
}

ServerHandler EchoHandler() {
  return [](const Request& request) {
    return MakeTextResponse(200, "r:" + request.path);
  };
}

// ------------------------------------------------- Stop() responsiveness ---

// Seed bug: connection threads blocked in ::recv on idle keep-alive
// connections; Stop() closed only the listen fd, then joined those threads
// forever. The reactor never blocks in recv, so Stop() must return promptly
// no matter how many idle keep-alive connections are open.
TEST(ReactorTest, StopReturnsPromptlyWithIdleKeepAliveConnections) {
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0).ok());

  // One connection that completed a keep-alive exchange, one that never
  // sent a byte — both sit idle in the server.
  const int active = ConnectLoopback(server.port());
  Request request = MakeRequest(Method::kGet, "/a");
  request.headers.Set("Connection", "keep-alive");
  SendAll(active, SerializeRequest(request));
  ASSERT_EQ(ReadResponses(active, 1).size(), 1u);
  const int silent = ConnectLoopback(server.port());
  // Wait until the loop has actually accepted the silent connection —
  // otherwise Stop() races the backlog and the kernel answers RST, not FIN.
  while (server.stats().connections_accepted < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 2000);

  // Both fds observe the server-side close.
  char byte = 0;
  EXPECT_EQ(::recv(active, &byte, 1, 0), 0);
  EXPECT_EQ(::recv(silent, &byte, 1, 0), 0);
  ::close(active);
  ::close(silent);
}

TEST(ReactorTest, StopDuringInflightRequestDoesNotHangOrCrash) {
  TcpServer server;
  std::atomic<int> entered{0};
  ASSERT_TRUE(server
                  .Start([&](const Request&) {
                    entered.fetch_add(1);
                    std::this_thread::sleep_for(std::chrono::milliseconds(150));
                    return MakeTextResponse(200, "slow");
                  },
                  0)
                  .ok());
  std::vector<std::thread> clients;
  std::atomic<int> finished{0};
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      TcpClient client(server.port(), 2000);
      (void)client.Get("/slow");  // response or transport error; must not hang
      finished.fetch_add(1);
    });
  }
  while (entered.load() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(stop_ms, 2000);
  for (auto& t : clients) t.join();
  EXPECT_EQ(finished.load(), 4);
}

// ------------------------------------------------------ accept() backoff ---

// Seed bug: AcceptLoop() `continue`d on every accept() failure, so a
// persistent EMFILE spun the accept thread at 100% CPU. The reactor must
// back off (bounded failure count) and recover once fds free up.
TEST(ReactorTest, AcceptBackoffUnderFdExhaustionAndRecovery) {
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0).ok());

  // Client socket first — once the fd table is full we cannot make one.
  const int client = ConnectLoopback(server.port());
  // Drain the accept of that first connection so the EMFILE window below
  // only ever sees the second, unacceptable connection.
  Request warm = MakeRequest(Method::kGet, "/warm");
  SendAll(client, SerializeRequest(warm));
  ASSERT_EQ(ReadResponses(client, 1).size(), 1u);
  const int pending = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(pending, 0);

  // Exhaust the process fd table (soft limit lowered so this stays cheap).
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = 512;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> hogs;
  while (true) {
    const int fd = ::dup(0);
    if (fd < 0) break;
    hogs.push_back(fd);
  }

  // The kernel completes this handshake via the listen backlog; the
  // server's accept() then fails EMFILE for the whole window.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(pending, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const ServerStats during = server.stats();
  EXPECT_GE(during.accept_backoff_bursts, 1u);
  // Without backoff a 300 ms EMFILE window records millions of failures;
  // with 10ms-doubling backoff it records a handful.
  EXPECT_LE(during.accept_failures, 30u);
  EXPECT_EQ(during.connections_accepted, 1u);

  // Free the fds: the next rearm must accept the pending connection.
  for (const int fd : hogs) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  Request request = MakeRequest(Method::kGet, "/after");
  SendAll(pending, SerializeRequest(request));
  const std::vector<Response> responses = ReadResponses(pending, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "r:/after");
  ::close(pending);
  ::close(client);
  server.Stop();
}

// ------------------------------------------------------- request limits ---

TEST(ReactorTest, OversizedHeaderBlockGets431AndClose) {
  ServerOptions options;
  options.max_header_bytes = 1024;
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());

  const int fd = ConnectLoopback(server.port());
  Request request = MakeRequest(Method::kGet, "/x");
  request.headers.Set("X-Padding", std::string(4096, 'p'));
  SendAll(fd, SerializeRequest(request));
  const std::vector<Response> responses = ReadResponses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 431);
  EXPECT_EQ(responses[0].headers.Get("Connection"), "close");
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // connection closed
  ::close(fd);
  EXPECT_GE(server.stats().limit_rejections, 1u);
  server.Stop();
}

// A client streaming header bytes forever (no terminator) used to grow the
// parser buffer without bound; now the cap trips mid-stream.
TEST(ReactorTest, EndlessHeaderStreamIsCappedNotBuffered) {
  ServerOptions options;
  options.max_header_bytes = 2048;
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());

  const int fd = ConnectLoopback(server.port());
  SendAll(fd, "GET /x HTTP/1.1\r\n");
  for (int i = 0; i < 64; ++i) {
    const std::string line = "X-H" + std::to_string(i) + ": " + std::string(100, 'v') + "\r\n";
    if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) <= 0) break;  // server hung up
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::vector<Response> responses = ReadResponses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 431);
  ::close(fd);
  server.Stop();
}

TEST(ReactorTest, OversizedBodyGets413BeforeBufferingIt) {
  ServerOptions options;
  options.max_body_bytes = 1024;
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());

  const int fd = ConnectLoopback(server.port());
  // Declare a 1 MiB body but send only the headers: the 413 must arrive
  // from the Content-Length alone.
  std::string head = "POST /x HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n";
  SendAll(fd, head);
  const std::vector<Response> responses = ReadResponses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 413);
  EXPECT_EQ(responses[0].headers.Get("Connection"), "close");
  ::close(fd);
  server.Stop();
}

TEST(ReactorTest, RequestExactlyAtBodyLimitIsServed) {
  ServerOptions options;
  options.max_body_bytes = 1024;
  TcpServer server;
  std::atomic<std::size_t> seen_body{0};
  ASSERT_TRUE(server
                  .Start([&](const Request& request) {
                    seen_body.store(request.body.size());
                    return MakeTextResponse(200, "ok");
                  },
                  0, options)
                  .ok());
  const int fd = ConnectLoopback(server.port());
  Request request = MakeRequest(Method::kPost, "/x");
  request.body = std::string(1024, 'b');  // exactly the cap
  SendAll(fd, SerializeRequest(request));
  const std::vector<Response> responses = ReadResponses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(seen_body.load(), 1024u);
  ::close(fd);
  server.Stop();
}

// Parser-level exactness: the caps are inclusive (== limit passes).
TEST(ReactorTest, WireParserLimitBoundariesAreExact) {
  Request request = MakeRequest(Method::kGet, "/x");
  const std::string wire = SerializeRequest(request);
  const std::size_t header_bytes = wire.size();  // no body: whole thing is header

  WireParser at_limit(WireParser::Mode::kRequest);
  at_limit.set_limits(header_bytes, 0);
  at_limit.Feed(wire);
  EXPECT_EQ(at_limit.overflow(), WireParser::Overflow::kNone);
  EXPECT_TRUE(at_limit.HasMessage());

  WireParser over_limit(WireParser::Mode::kRequest);
  over_limit.set_limits(header_bytes - 1, 0);
  over_limit.Feed(wire);
  EXPECT_EQ(over_limit.overflow(), WireParser::Overflow::kHeader);
  EXPECT_FALSE(over_limit.HasMessage());

  Request with_body = MakeRequest(Method::kPost, "/x");
  with_body.body = std::string(64, 'b');
  WireParser body_at(WireParser::Mode::kRequest);
  body_at.set_limits(0, 64);
  body_at.Feed(SerializeRequest(with_body));
  EXPECT_EQ(body_at.overflow(), WireParser::Overflow::kNone);
  EXPECT_TRUE(body_at.HasMessage());

  WireParser body_over(WireParser::Mode::kRequest);
  body_over.set_limits(0, 63);
  body_over.Feed(SerializeRequest(with_body));
  EXPECT_EQ(body_over.overflow(), WireParser::Overflow::kBody);
}

// ------------------------------------------------ parse-error discipline ---

// Seed bug: after a broken parse the connection kept its buffered bytes and
// close_after was only computed on the success path. The reactor must send
// one 400 with Connection: close and discard everything after the garbage.
TEST(ReactorTest, PipelinedGarbageAfterValidRequestDiscardsConnection) {
  TcpServer server;
  std::atomic<int> served{0};
  ASSERT_TRUE(server
                  .Start([&](const Request& request) {
                    served.fetch_add(1);
                    return MakeTextResponse(200, "r:" + request.path);
                  },
                  0)
                  .ok());
  const int fd = ConnectLoopback(server.port());
  Request good = MakeRequest(Method::kGet, "/good");
  good.headers.Set("Connection", "keep-alive");
  // Garbage that frames like a message (has the blank-line terminator) but
  // fails the request-line parse, followed by a request that must NOT run.
  Request never = MakeRequest(Method::kGet, "/never");
  const std::string wire = SerializeRequest(good) + "BOGUS-LINE\r\n\r\n" +
                           SerializeRequest(never);
  SendAll(fd, wire);
  const std::vector<Response> responses = ReadResponses(fd, 3);
  ASSERT_EQ(responses.size(), 2u);  // 200, then 400, then close — no third
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body, "r:/good");
  EXPECT_EQ(responses[1].status, 400);
  EXPECT_EQ(responses[1].headers.Get("Connection"), "close");
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  EXPECT_EQ(served.load(), 1);  // /never was discarded with the connection

  // The server survives: a fresh connection still works.
  const int fresh = ConnectLoopback(server.port());
  SendAll(fresh, SerializeRequest(MakeRequest(Method::kGet, "/again")));
  EXPECT_EQ(ReadResponses(fresh, 1).size(), 1u);
  ::close(fresh);
  server.Stop();
}

// --------------------------------------------------- pipelining + reads ---

TEST(ReactorTest, TwoRequestsInOneSendAreServedInOrder) {
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0).ok());
  const int fd = ConnectLoopback(server.port());
  Request a = MakeRequest(Method::kGet, "/a");
  a.headers.Set("Connection", "keep-alive");
  Request b = MakeRequest(Method::kGet, "/b");
  SendAll(fd, SerializeRequest(a) + SerializeRequest(b));
  const std::vector<Response> responses = ReadResponses(fd, 2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].body, "r:/a");
  EXPECT_EQ(responses[1].body, "r:/b");
  ::close(fd);
  server.Stop();
}

TEST(ReactorTest, ResponseSplitAcrossManySmallReadsParses) {
  TcpServer server;
  ASSERT_TRUE(server
                  .Start([](const Request&) {
                    return MakeTextResponse(200, std::string(8192, 'x'));
                  },
                  0)
                  .ok());
  const int fd = ConnectLoopback(server.port());
  SendAll(fd, SerializeRequest(MakeRequest(Method::kGet, "/big")));
  // 7-byte reads: headers and body arrive in hundreds of fragments.
  const std::vector<Response> responses = ReadResponses(fd, 1, 7);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body.size(), 8192u);
  ::close(fd);
  server.Stop();
}

TEST(ReactorTest, KeepAliveServes100SequentialRequestsOnOneFd) {
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0).ok());
  const int fd = ConnectLoopback(server.port());
  for (int i = 0; i < 100; ++i) {
    Request request = MakeRequest(Method::kGet, "/seq/" + std::to_string(i));
    request.headers.Set("Connection", "keep-alive");
    SendAll(fd, SerializeRequest(request));
    const std::vector<Response> responses = ReadResponses(fd, 1);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].body, "r:/seq/" + std::to_string(i));
  }
  ::close(fd);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests_served, 100u);
  server.Stop();
}

// ---------------------------------------------------- client-side pool ---

TEST(ReactorTest, TcpClientPoolReusesOneConnection) {
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0).ok());
  TcpClient client(server.port());
  for (int i = 0; i < 100; ++i) {
    auto response = client.Get("/p/" + std::to_string(i));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
  }
  EXPECT_EQ(client.connections_opened(), 1u);
  EXPECT_EQ(client.connections_reused(), 99u);
  EXPECT_EQ(server.stats().connections_accepted, 1u);
  server.Stop();
}

TEST(ReactorTest, TcpClientRetriesOnceOnStalePooledConnection) {
  ServerOptions options;
  options.idle_timeout_ms = 50;  // server reaps the pooled fd between calls
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());
  TcpClient client(server.port());
  ASSERT_TRUE(client.Get("/one").ok());
  // Wait until the server's idle sweep has definitely closed the connection.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (server.stats().idle_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.stats().idle_closed, 1u);
  auto response = client.Get("/two");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(client.connections_opened(), 2u);  // stale fd detected, reconnected
  server.Stop();
}

// ------------------------------------------- multiplexed client exchange ---

/// Runs `legs` through TcpClient::Exchange and returns each leg's answer.
std::vector<Result<Response>> RunExchange(std::vector<TcpClient::Leg>& legs) {
  std::vector<Result<Response>> answers(legs.size(), Status::Internal("leg never ended"));
  std::vector<int> calls(legs.size(), 0);
  for (std::size_t i = 0; i < legs.size(); ++i) {
    legs[i].done = [&answers, &calls, i](Result<Response> answer) {
      ++calls[i];
      answers[i] = std::move(answer);
    };
  }
  TcpClient::Exchange(legs);
  for (std::size_t i = 0; i < legs.size(); ++i) {
    EXPECT_EQ(calls[i], 1) << "leg " << i << " must end exactly once";
  }
  return answers;
}

TcpClient::Leg MakeLeg(TcpClient& client, const std::string& target) {
  TcpClient::Leg leg;
  leg.client = &client;
  leg.request = MakeRequest(Method::kGet, target);
  return leg;
}

TEST(ReactorTest, ExchangeReopensOnlyTheLegWhosePooledSocketWasReaped) {
  ServerOptions reaping;
  reaping.idle_timeout_ms = 50;  // reaps its pooled fd between exchanges
  TcpServer reaper;
  TcpServer steady;
  ASSERT_TRUE(reaper.Start(EchoHandler(), 0, reaping).ok());
  ASSERT_TRUE(steady.Start(EchoHandler(), 0).ok());
  TcpClient to_reaper(reaper.port());
  TcpClient to_steady(steady.port());
  ASSERT_TRUE(to_reaper.Get("/warm").ok());
  ASSERT_TRUE(to_steady.Get("/warm").ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (reaper.stats().idle_closed == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(reaper.stats().idle_closed, 1u);

  std::vector<TcpClient::Leg> legs;
  legs.push_back(MakeLeg(to_reaper, "/a"));
  legs.push_back(MakeLeg(to_steady, "/b"));
  const std::vector<Result<Response>> answers = RunExchange(legs);
  ASSERT_TRUE(answers[0].ok()) << answers[0].status().ToString();
  ASSERT_TRUE(answers[1].ok()) << answers[1].status().ToString();
  EXPECT_EQ(answers[0]->body, "r:/a");
  EXPECT_EQ(answers[1]->body, "r:/b");
  EXPECT_EQ(to_reaper.connections_opened(), 2u) << "exactly one new connection";
  EXPECT_EQ(to_steady.connections_opened(), 1u);
  EXPECT_EQ(to_steady.connections_reused(), 1u);
  reaper.Stop();
  steady.Stop();
}

TEST(ReactorTest, ExchangeRetriesALegWhosePooledSocketClosesAfterTheWrite) {
  // A raw peer that answers one request keep-alive, then closes that
  // connection on reading the next one without a response byte, then
  // answers on a new connection. The pool's liveness probe cannot see this
  // close coming; the leg's stale retry must.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  const auto read_request = [](int fd) {
    WireParser parser(WireParser::Mode::kRequest);
    char buffer[4096];
    while (!parser.HasMessage()) {
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
      if (n <= 0) return false;
      parser.Feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    }
    return true;
  };
  const std::string ok = SerializeResponse(MakeTextResponse(200, "ok"));
  std::thread peer([&] {
    const int first = ::accept(listener, nullptr, nullptr);
    if (read_request(first)) (void)::send(first, ok.data(), ok.size(), MSG_NOSIGNAL);
    (void)read_request(first);
    ::close(first);  // drop the second request unanswered
    const int second = ::accept(listener, nullptr, nullptr);
    if (read_request(second)) (void)::send(second, ok.data(), ok.size(), MSG_NOSIGNAL);
    ::close(second);
  });
  TcpServer steady;
  ASSERT_TRUE(steady.Start(EchoHandler(), 0).ok());
  TcpClient to_peer(port);
  TcpClient to_steady(steady.port());
  ASSERT_TRUE(to_peer.Get("/warm").ok());

  std::vector<TcpClient::Leg> legs;
  legs.push_back(MakeLeg(to_peer, "/retried"));
  legs.push_back(MakeLeg(to_steady, "/b"));
  const std::vector<Result<Response>> answers = RunExchange(legs);
  peer.join();
  ::close(listener);
  ASSERT_TRUE(answers[0].ok()) << answers[0].status().ToString();
  EXPECT_EQ(answers[0]->body, "ok");
  ASSERT_TRUE(answers[1].ok()) << answers[1].status().ToString();
  EXPECT_EQ(to_peer.connections_reused(), 1u);
  EXPECT_EQ(to_peer.connections_opened(), 2u);
  steady.Stop();
}

TEST(ReactorTest, ExchangeFailsOnlyTheLateLegAtItsClientsDeadline) {
  std::atomic<bool> release{false};
  TcpServer hung;
  ASSERT_TRUE(hung.Start([&](const Request& request) {
                    while (!release.load()) {
                      std::this_thread::sleep_for(std::chrono::milliseconds(5));
                    }
                    return MakeTextResponse(200, "late:" + request.path);
                  },
                  0)
                  .ok());
  TcpServer steady;
  ASSERT_TRUE(steady.Start(EchoHandler(), 0).ok());
  TcpClient to_hung(hung.port(), /*timeout_ms=*/100);
  TcpClient to_steady(steady.port(), /*timeout_ms=*/5000);

  std::vector<TcpClient::Leg> legs;
  legs.push_back(MakeLeg(to_hung, "/hung"));
  legs.push_back(MakeLeg(to_steady, "/b"));
  const auto start = std::chrono::steady_clock::now();
  const std::vector<Result<Response>> answers = RunExchange(legs);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(answers[0].ok());
  EXPECT_EQ(answers[0].status().code(), ErrorCode::kTimeout);
  ASSERT_TRUE(answers[1].ok()) << answers[1].status().ToString();
  EXPECT_EQ(answers[1]->body, "r:/b");
  EXPECT_GE(elapsed, std::chrono::milliseconds(100));
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
  release = true;
  hung.Stop();
  steady.Stop();
}

TEST(ReactorTest, MaxRequestsPerConnectionForcesClose) {
  ServerOptions options;
  options.max_requests_per_connection = 2;
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());
  const int fd = ConnectLoopback(server.port());
  Request request = MakeRequest(Method::kGet, "/x");
  request.headers.Set("Connection", "keep-alive");
  SendAll(fd, SerializeRequest(request));
  std::vector<Response> first = ReadResponses(fd, 1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].headers.Get("Connection"), "keep-alive");
  SendAll(fd, SerializeRequest(request));
  std::vector<Response> second = ReadResponses(fd, 1);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].headers.Get("Connection"), "close");
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  server.Stop();
}

TEST(ReactorTest, IdleConnectionsAreReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 50;
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());
  const int fd = ConnectLoopback(server.port());
  // Never send a byte: the idle sweep must close us.
  char byte = 0;
  const ssize_t n = ::recv(fd, &byte, 1, 0);  // blocks until server closes
  EXPECT_EQ(n, 0);
  EXPECT_GE(server.stats().idle_closed, 1u);
  ::close(fd);
  server.Stop();
}

TEST(ReactorTest, WorkerQueueFullAnswers503RetryAfter) {
  ServerOptions options;
  options.workers = 1;
  options.max_queued_requests = 1;
  TcpServer server;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> entered{0};
  ASSERT_TRUE(server
                  .Start([&](const Request&) {
                    entered.fetch_add(1);
                    gate.wait();
                    return MakeTextResponse(200, "done");
                  },
                  0, options)
                  .ok());
  // First request occupies the single worker.
  std::thread blocked([&] {
    TcpClient client(server.port(), 5000);
    auto response = client.Get("/block");
    EXPECT_TRUE(response.ok());
  });
  while (entered.load() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Second fills the queue slot.
  std::thread queued([&] {
    TcpClient client(server.port(), 5000);
    auto response = client.Get("/queued");
    EXPECT_TRUE(response.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Third must be refused immediately by the loop.
  TcpClient client(server.port(), 5000);
  auto refused = client.Get("/refused");
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused->status, 503);
  // Retry-After is derived from queue depth / drain rate: a 2-deep backlog
  // against the fresh estimator's 100/s fallback rounds up to 1 s.
  EXPECT_EQ(refused->headers.Get("Retry-After"), "1");
  release.set_value();
  blocked.join();
  queued.join();
  EXPECT_GE(server.stats().overload_rejections, 1u);
  server.Stop();
}

// Regression for the hardcoded "Retry-After: 1": the overload hint must
// scale with the backlog, so clients shed behind a deep queue are told to
// come back later than clients shed behind a shallow one.
TEST(ReactorTest, OverloadRetryAfterScalesWithQueueDepth) {
  ServerOptions options;
  options.workers = 1;
  options.max_queued_requests = 150;
  options.max_connections = 400;
  TcpServer server;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> entered{0};
  ASSERT_TRUE(server
                  .Start([&](const Request&) {
                    entered.fetch_add(1);
                    gate.wait();
                    return MakeTextResponse(200, "done");
                  },
                  0, options)
                  .ok());
  // Park one request on the single worker, then pile ~150 more into the
  // dispatch queue from individual connections.
  std::vector<int> fds;
  for (int i = 0; i < 151; ++i) {
    const int fd = ConnectLoopback(server.port());
    SendAll(fd, SerializeRequest(MakeRequest(Method::kGet, "/pile")));
    fds.push_back(fd);
    if (i == 0) {
      while (entered.load() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }
  // Let the loop ingest the backlog, then get shed at full depth: with ~150
  // queued against the 100/s fallback drain rate the derived hint must
  // exceed the shallow-queue value of 1 s.
  Response refused;
  for (int attempt = 0; attempt < 200 && refused.status != 503; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    TcpClient client(server.port(), 5000);
    auto response = client.Get("/refused");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    refused = *response;
  }
  ASSERT_EQ(refused.status, 503);
  EXPECT_GE(std::atoi(refused.headers.GetOr("Retry-After", "0").c_str()), 2);
  release.set_value();
  for (const int fd : fds) ::close(fd);
  server.Stop();
}

// End-to-end token-bucket admission: a tenant over its rate gets 429 with a
// Retry-After derived from refill time — and successive rejections quote
// non-decreasing (and eventually growing) waits, never one constant.
TEST(ReactorTest, QosRateLimitBreachAnswers429WithDerivedRetryAfter) {
  ServerOptions options;
  options.tenant_classifier = [](const Request& request) {
    qos::TenantSpec spec;
    spec.id = request.headers.GetOr("X-Tenant", "default");
    if (spec.id == "limited") {
      spec.rate_rps = 1.0;
      spec.burst = 1.0;
    }
    return spec;
  };
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());
  TcpClient client(server.port(), 5000);
  Request request = MakeRequest(Method::kGet, "/limited");
  request.headers.Set("X-Tenant", "limited");
  auto first = client.Send(request);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, 200);
  std::vector<int> retry_afters;
  for (int i = 0; i < 4; ++i) {
    auto rejected = client.Send(request);
    ASSERT_TRUE(rejected.ok());
    ASSERT_EQ(rejected->status, 429) << "request " << i;
    const std::string header = rejected->headers.GetOr("Retry-After", "");
    ASSERT_FALSE(header.empty());
    retry_afters.push_back(std::atoi(header.c_str()));
  }
  for (std::size_t i = 1; i < retry_afters.size(); ++i) {
    EXPECT_GE(retry_afters[i], retry_afters[i - 1]);
  }
  EXPECT_GT(retry_afters.back(), retry_afters.front());
  // An unlimited tenant on the same server is untouched.
  Request open = MakeRequest(Method::kGet, "/open");
  open.headers.Set("X-Tenant", "open");
  auto fine = client.Send(open);
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(fine->status, 200);
  EXPECT_GE(server.stats().rate_limited_rejections, 4u);
  const auto tenants = server.TenantQosStats();
  bool saw_limited = false;
  for (const auto& tenant : tenants) {
    if (tenant.id == "limited") {
      saw_limited = true;
      EXPECT_GE(tenant.rate_limited, 4u);
    }
  }
  EXPECT_TRUE(saw_limited);
  server.Stop();
}

// With the classifier installed, requests flow through the DRR scheduler:
// every request from every tenant still completes (no starvation, no loss).
TEST(ReactorTest, QosSchedulerCompletesAllTenantsRequests) {
  ServerOptions options;
  options.workers = 2;
  options.tenant_classifier = [](const Request& request) {
    qos::TenantSpec spec;
    spec.id = request.headers.GetOr("X-Tenant", "default");
    spec.weight = spec.id == "heavy" ? 4 : 1;
    return spec;
  };
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      TcpClient client(server.port(), 5000);
      Request request = MakeRequest(Method::kGet, "/work");
      request.headers.Set("X-Tenant", t == 0 ? "heavy" : "light" + std::to_string(t));
      for (int i = 0; i < 25; ++i) {
        auto response = client.Send(request);
        if (response.ok() && response->status == 200) completed.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(completed.load(), 75);
  const auto tenants = server.TenantQosStats();
  EXPECT_GE(tenants.size(), 3u);
  std::uint64_t dispatched = 0;
  for (const auto& tenant : tenants) dispatched += tenant.dispatched;
  EXPECT_EQ(dispatched, 75u);
  server.Stop();
}

// A half-closed client (shutdown(SHUT_WR) after the request) still gets its
// response: EOF while a request is in flight must not kill the connection.
TEST(ReactorTest, HalfCloseAfterRequestStillGetsResponse) {
  TcpServer server;
  ASSERT_TRUE(server
                  .Start([](const Request&) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(30));
                    return MakeTextResponse(200, "late");
                  },
                  0)
                  .ok());
  const int fd = ConnectLoopback(server.port());
  SendAll(fd, SerializeRequest(MakeRequest(Method::kGet, "/halfclose")));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const std::vector<Response> responses = ReadResponses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "late");
  ::close(fd);
  server.Stop();
}

TEST(ReactorTest, ConcurrentKeepAliveClientsUnderChurn) {
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0).ok());
  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      TcpClient client(server.port());
      for (int i = 0; i < 50; ++i) {
        auto response = client.Get("/c/" + std::to_string(t) + "/" + std::to_string(i));
        if (response.ok() && response->status == 200) successes.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(successes.load(), 8 * 50);
  // Pooling means connection count is bounded by the client count, not the
  // request count.
  EXPECT_LE(server.stats().connections_accepted, 16u);
  server.Stop();
}

}  // namespace
}  // namespace ofmf::http
