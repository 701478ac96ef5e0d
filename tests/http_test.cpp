#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include "http/message.hpp"
#include "http/server.hpp"
#include "http/uri.hpp"
#include "http/wire.hpp"
#include "json/parse.hpp"
#include "json/serialize.hpp"

namespace ofmf::http {
namespace {

using json::Json;
using ::testing::HasSubstr;

// --------------------------------------------------------------- Message ---

TEST(MessageTest, MethodRoundTrip) {
  for (Method m : {Method::kGet, Method::kPost, Method::kPatch, Method::kPut,
                   Method::kDelete, Method::kHead, Method::kOptions}) {
    EXPECT_EQ(ParseMethod(to_string(m)), m);
  }
  EXPECT_FALSE(ParseMethod("BREW").has_value());
}

TEST(MessageTest, HeaderMapIsCaseInsensitive) {
  HeaderMap headers;
  headers.Set("Content-Type", "application/json");
  EXPECT_EQ(headers.Get("content-type"), "application/json");
  EXPECT_EQ(headers.GetOr("X-Missing", "fb"), "fb");
  EXPECT_TRUE(headers.Contains("CONTENT-TYPE"));
  headers.Set("content-TYPE", "text/plain");  // replaces, no duplicate
  EXPECT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers.Get("Content-Type"), "text/plain");
  headers.Remove("CoNtEnT-tYpE");
  EXPECT_FALSE(headers.Contains("Content-Type"));
}

TEST(MessageTest, HeaderAddKeepsMultiple) {
  HeaderMap headers;
  headers.Add("Set-Cookie", "a=1");
  headers.Add("Set-Cookie", "b=2");
  EXPECT_EQ(headers.size(), 2u);
  EXPECT_EQ(headers.Get("set-cookie"), "a=1");  // first value
}

TEST(MessageTest, MakeRequestSplitsQuery) {
  const Request r = MakeRequest(Method::kGet, "/redfish/v1/Systems?$top=3&$skip=1");
  EXPECT_EQ(r.path, "/redfish/v1/Systems");
  EXPECT_EQ(r.query.at("$top"), "3");
  EXPECT_EQ(r.query.at("$skip"), "1");
  EXPECT_EQ(r.target, "/redfish/v1/Systems?$top=3&$skip=1");
}

TEST(MessageTest, JsonBodyParsesAndRejects) {
  Request r = MakeJsonRequest(Method::kPost, "/x", Json::Obj({{"a", 1}}));
  EXPECT_EQ(r.headers.Get("Content-Type"), "application/json");
  auto body = r.JsonBody();
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->GetInt("a"), 1);

  Request empty = MakeRequest(Method::kPost, "/x");
  EXPECT_FALSE(empty.JsonBody().ok());
  empty.body = "{broken";
  EXPECT_FALSE(empty.JsonBody().ok());
}

TEST(MessageTest, StatusToHttpMapping) {
  EXPECT_EQ(StatusToHttp(Status::Ok()), 200);
  EXPECT_EQ(StatusToHttp(Status::NotFound("")), 404);
  EXPECT_EQ(StatusToHttp(Status::InvalidArgument("")), 400);
  EXPECT_EQ(StatusToHttp(Status::AlreadyExists("")), 409);
  EXPECT_EQ(StatusToHttp(Status::FailedPrecondition("")), 412);
  EXPECT_EQ(StatusToHttp(Status::ResourceExhausted("")), 507);
  EXPECT_EQ(StatusToHttp(Status::Unavailable("")), 503);
  EXPECT_EQ(StatusToHttp(Status::Unimplemented("")), 501);
}

// ------------------------------------------------------------------- Uri ---

TEST(UriTest, PercentDecodeEncode) {
  EXPECT_EQ(PercentDecode("a%20b%2Fc+d"), "a b/c d");
  EXPECT_EQ(PercentDecode("%ZZ"), "%ZZ");  // malformed passes through
  EXPECT_EQ(PercentEncode("a b/c"), "a%20b/c");
  EXPECT_EQ(PercentDecode(PercentEncode("Name eq 'x y'")), "Name eq 'x y'");
}

TEST(UriTest, NormalizePath) {
  EXPECT_EQ(NormalizePath("/redfish/v1/"), "/redfish/v1");
  EXPECT_EQ(NormalizePath("//a//b/"), "/a/b");
  EXPECT_EQ(NormalizePath("/"), "/");
  EXPECT_EQ(NormalizePath(""), "/");
}

TEST(UriTest, QueryWithoutValue) {
  const ParsedUri uri = ParseUriTarget("/a?flag&x=1");
  EXPECT_EQ(uri.query.at("flag"), "");
  EXPECT_EQ(uri.query.at("x"), "1");
}

TEST(UriTest, EncodedFilterDecodes) {
  const ParsedUri uri = ParseUriTarget("/c?$filter=Name%20eq%20%27n1%27");
  EXPECT_EQ(uri.query.at("$filter"), "Name eq 'n1'");
}

// ------------------------------------------------------------------ Wire ---

TEST(WireTest, RequestRoundTrip) {
  Request request = MakeJsonRequest(Method::kPost, "/redfish/v1/Systems?x=1",
                                    Json::Obj({{"Name", "n"}}));
  request.headers.Set("X-Auth-Token", "tok123");
  const std::string wire = SerializeRequest(request);
  EXPECT_THAT(wire, HasSubstr("POST /redfish/v1/Systems?x=1 HTTP/1.1\r\n"));
  EXPECT_THAT(wire, HasSubstr("Content-Length:"));

  WireParser parser(WireParser::Mode::kRequest);
  parser.Feed(wire);
  ASSERT_TRUE(parser.HasMessage());
  auto parsed = parser.TakeRequest();
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->method, Method::kPost);
  EXPECT_EQ(parsed->path, "/redfish/v1/Systems");
  EXPECT_EQ(parsed->query.at("x"), "1");
  EXPECT_EQ(parsed->headers.Get("x-auth-token"), "tok123");
  EXPECT_EQ(parsed->JsonBody()->GetString("Name"), "n");
}

TEST(WireTest, ResponseRoundTrip) {
  Response response = MakeJsonResponse(201, Json::Obj({{"Id", "5"}}));
  response.headers.Set("Location", "/redfish/v1/Systems/5");
  const std::string wire = SerializeResponse(response);
  EXPECT_THAT(wire, HasSubstr("HTTP/1.1 201 Created\r\n"));

  WireParser parser(WireParser::Mode::kResponse);
  parser.Feed(wire);
  ASSERT_TRUE(parser.HasMessage());
  auto parsed = parser.TakeResponse();
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status, 201);
  EXPECT_EQ(parsed->headers.Get("Location"), "/redfish/v1/Systems/5");
}

TEST(WireTest, IncrementalFeedByteByByte) {
  const std::string wire =
      SerializeRequest(MakeJsonRequest(Method::kPatch, "/x", Json::Obj({{"v", 7}})));
  WireParser parser(WireParser::Mode::kRequest);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_FALSE(parser.HasMessage() && i + 1 < wire.size());
    parser.Feed(std::string_view(&wire[i], 1));
  }
  ASSERT_TRUE(parser.HasMessage());
  EXPECT_EQ(parser.TakeRequest()->JsonBody()->GetInt("v"), 7);
}

TEST(WireTest, PipelinedRequestsStayBuffered) {
  const std::string one = SerializeRequest(MakeRequest(Method::kGet, "/a"));
  const std::string two = SerializeRequest(MakeRequest(Method::kGet, "/b"));
  WireParser parser(WireParser::Mode::kRequest);
  parser.Feed(one + two);
  ASSERT_TRUE(parser.HasMessage());
  EXPECT_EQ(parser.TakeRequest()->path, "/a");
  ASSERT_TRUE(parser.HasMessage());
  EXPECT_EQ(parser.TakeRequest()->path, "/b");
  EXPECT_FALSE(parser.HasMessage());
}

TEST(WireTest, MalformedStartLineMarksBroken) {
  WireParser parser(WireParser::Mode::kRequest);
  parser.Feed("NOT A REQUEST LINE\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(parser.HasMessage());
  EXPECT_FALSE(parser.TakeRequest().ok());
  EXPECT_TRUE(parser.Broken());
}

TEST(WireTest, UnknownMethodRejected) {
  WireParser parser(WireParser::Mode::kRequest);
  parser.Feed("BREW /pot HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(parser.HasMessage());
  EXPECT_FALSE(parser.TakeRequest().ok());
}

TEST(WireTest, TakeWithoutMessageFails) {
  WireParser parser(WireParser::Mode::kRequest);
  EXPECT_FALSE(parser.TakeRequest().ok());
  parser.Feed("GET /a HTTP/1.1\r\n");  // incomplete headers
  EXPECT_FALSE(parser.HasMessage());
}

// ------------------------------------------------------------ Transports ---

TEST(InProcessTest, RoundTripAndConvenienceVerbs) {
  InProcessClient client([](const Request& request) {
    Json body = Json::Obj({{"method", to_string(request.method)},
                           {"path", request.path}});
    return MakeJsonResponse(200, body);
  });
  auto get = client.Get("/redfish/v1");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(json::Parse(get->body)->GetString("method"), "GET");

  auto post = client.PostJson("/c", Json::Obj({{"a", 1}}));
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(json::Parse(post->body)->GetString("method"), "POST");

  auto patch = client.PatchJson("/c", Json::Obj({}));
  EXPECT_EQ(json::Parse(patch->body)->GetString("method"), "PATCH");
  auto del = client.Delete("/c/1");
  EXPECT_EQ(json::Parse(del->body)->GetString("method"), "DELETE");
}

TEST(TcpTest, ServerClientRoundTrip) {
  TcpServer server;
  ASSERT_TRUE(server
                  .Start([](const Request& request) {
                    return MakeJsonResponse(
                        200, Json::Obj({{"echo", request.path},
                                        {"body_len", static_cast<std::int64_t>(
                                                         request.body.size())}}));
                  })
                  .ok());
  ASSERT_GT(server.port(), 0);

  TcpClient client(server.port());
  auto response = client.PostJson("/redfish/v1/Fabrics", Json::Obj({{"Name", "fab"}}));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  const Json body = *json::Parse(response->body);
  EXPECT_EQ(body.GetString("echo"), "/redfish/v1/Fabrics");
  EXPECT_GT(body.GetInt("body_len"), 0);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(TcpTest, ConcurrentClients) {
  TcpServer server;
  ASSERT_TRUE(server
                  .Start([](const Request& request) {
                    return MakeTextResponse(200, "pong:" + request.path);
                  })
                  .ok());
  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      TcpClient client(server.port());
      auto response = client.Get("/t/" + std::to_string(i));
      if (response.ok() && response->body == "pong:/t/" + std::to_string(i)) {
        successes.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(successes.load(), 8);
  server.Stop();
}

TEST(TcpTest, KeepAliveServesPipelinedRequestsOnOneConnection) {
  TcpServer server;
  std::atomic<int> served{0};
  ASSERT_TRUE(server
                  .Start([&](const Request& request) {
                    served.fetch_add(1);
                    return MakeTextResponse(200, "r:" + request.path);
                  })
                  .ok());
  // Raw socket: two keep-alive requests back to back on one connection.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  Request first = MakeRequest(Method::kGet, "/a");
  first.headers.Set("Connection", "keep-alive");
  Request second = MakeRequest(Method::kGet, "/b");
  second.headers.Set("Connection", "close");
  const std::string wire = SerializeRequest(first) + SerializeRequest(second);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  WireParser parser(WireParser::Mode::kResponse);
  char buffer[4096];
  std::vector<Response> responses;
  while (responses.size() < 2) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    parser.Feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    while (parser.HasMessage()) {
      auto response = parser.TakeResponse();
      ASSERT_TRUE(response.ok());
      responses.push_back(*response);
    }
  }
  ::close(fd);
  server.Stop();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].body, "r:/a");
  EXPECT_EQ(responses[0].headers.Get("Connection"), "keep-alive");
  EXPECT_EQ(responses[1].body, "r:/b");
  EXPECT_EQ(responses[1].headers.Get("Connection"), "close");
  EXPECT_EQ(served.load(), 2);
}

TEST(TcpTest, ConnectToClosedPortFails) {
  TcpServer server;
  ASSERT_TRUE(server.Start([](const Request&) { return MakeEmptyResponse(204); }).ok());
  const std::uint16_t port = server.port();
  server.Stop();
  TcpClient client(port);
  EXPECT_FALSE(client.Get("/x").ok());
}

TEST(TcpTest, DoubleStartRejected) {
  TcpServer server;
  ASSERT_TRUE(server.Start([](const Request&) { return MakeEmptyResponse(204); }).ok());
  EXPECT_EQ(server.Start([](const Request&) { return MakeEmptyResponse(204); }, 0).code(),
            ErrorCode::kFailedPrecondition);
  server.Stop();
}

}  // namespace
}  // namespace ofmf::http
