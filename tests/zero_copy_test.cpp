// Zero-copy response path: BufferPool slab recycling and alias safety
// (meant to run under OFMF_SANITIZE=address), Body view semantics, the
// WireParser's zero-copy body extraction and eager compaction, cache-hit
// slab identity through the Redfish service, and partial-writev resumption
// mid-iovec through a real TcpServer.
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/bufpool.hpp"
#include "http/message.hpp"
#include "http/server.hpp"
#include "http/wire.hpp"
#include "json/value.hpp"
#include "redfish/schemas.hpp"
#include "redfish/service.hpp"
#include "redfish/tree.hpp"

namespace ofmf {
namespace {

using json::Json;

// ------------------------------------------------------------ BufferPool ---

TEST(BufferPoolTest, ReusesSlabsWithinSizeClass) {
  common::BufferPool pool;
  std::string* raw = nullptr;
  {
    common::BufferPool::Slab slab = pool.Acquire(4096);
    ASSERT_NE(slab, nullptr);
    EXPECT_GE(slab->size(), 4096u);
    raw = slab.get();
  }  // last reference drops: parked, not freed
  common::BufferPool::Slab again = pool.Acquire(4096);
  EXPECT_EQ(again.get(), raw);  // same slab handed back out
  const common::BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.acquired, 2u);
  EXPECT_EQ(stats.reused, 1u);
  EXPECT_EQ(stats.returned, 1u);
}

TEST(BufferPoolTest, RoundsUpToPowerOfTwoClasses) {
  common::BufferPool pool;
  EXPECT_EQ(pool.Acquire(1)->size(), common::BufferPool::kMinSlabBytes);
  EXPECT_EQ(pool.Acquire(4097)->size(), 2 * common::BufferPool::kMinSlabBytes);
  EXPECT_EQ(pool.Acquire(100000)->size(), 131072u);
}

TEST(BufferPoolTest, OversizeRequestsAreServedUnpooled) {
  common::BufferPool pool;
  const std::size_t huge = common::BufferPool::kMaxSlabBytes + 1;
  { common::BufferPool::Slab slab = pool.Acquire(huge); ASSERT_GE(slab->size(), huge); }
  const common::BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.dropped, 1u);   // freed, never parked
  EXPECT_EQ(stats.returned, 0u);
}

TEST(BufferPoolTest, TrimDropsParkedSlabs) {
  common::BufferPool pool;
  std::string* raw = pool.Acquire(4096).get();  // park immediately
  pool.Trim();
  // After Trim the free list is empty; a fresh Acquire may or may not land
  // on the same address (allocator's choice), but stats must show no reuse.
  (void)raw;
  (void)pool.Acquire(4096);
  EXPECT_EQ(pool.stats().reused, 0u);
}

// A Body aliasing a pooled slab keeps it checked out: the slab returns to
// the pool only after the LAST reference drops, so the pool can never hand
// bytes still visible through a view to a new owner. ASan would flag any
// use-after-return here.
TEST(BufferPoolTest, BodyAliasKeepsSlabCheckedOut) {
  common::BufferPool pool;
  http::Body body;
  {
    common::BufferPool::Slab slab = pool.Acquire(4096);
    std::memcpy(slab->data(), "payload-bytes", 13);
    body = http::Body(std::shared_ptr<const std::string>(slab), 0, 13);
  }  // parser-side reference gone; the Body still owns the slab
  EXPECT_EQ(pool.stats().returned, 0u);  // not yet parked
  EXPECT_EQ(body, "payload-bytes");      // bytes still valid under ASan
  body.clear();
  EXPECT_EQ(pool.stats().returned, 1u);  // now it came back
  // And it is genuinely reusable afterwards.
  EXPECT_EQ(pool.stats().acquired, 1u);
  (void)pool.Acquire(4096);
  EXPECT_EQ(pool.stats().reused, 1u);
}

// ------------------------------------------------------------------ Body ---

TEST(BodyTest, ViewSemantics) {
  http::Body empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.slab(), nullptr);
  EXPECT_EQ(empty, "");

  http::Body owned = std::string("hello world");
  EXPECT_EQ(owned.size(), 11u);
  EXPECT_EQ(owned, "hello world");
  EXPECT_EQ(owned.find("world"), 6u);
  EXPECT_EQ(owned.str(), "hello world");

  auto slab = std::make_shared<const std::string>("xxhelloxx");
  http::Body window(slab, 2, 5);
  EXPECT_EQ(window, "hello");
  EXPECT_EQ(window.slab_offset(), 2u);
  EXPECT_EQ(window.slab().get(), slab.get());

  http::Body copy = window;
  EXPECT_EQ(copy.slab().get(), window.slab().get());  // copies share, not dup
  EXPECT_EQ(copy, window);
}

// ------------------------------------------------------------ WireParser ---

TEST(WireParserZeroCopyTest, LargeBodyIsExtractedAsSlabViewNotCopied) {
  http::ResetWireCopyStats();
  http::Request request = http::MakeRequest(http::Method::kPost, "/big");
  request.body = std::string(64 * 1024, 'b');

  http::WireParser parser(http::WireParser::Mode::kRequest);
  parser.Feed(http::SerializeRequest(request));
  ASSERT_TRUE(parser.HasMessage());
  Result<http::Request> parsed = parser.TakeRequest();
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->body.size(), 64u * 1024u);
  EXPECT_NE(parsed->body.slab(), nullptr);
  EXPECT_GT(parsed->body.slab_offset(), 0u);  // views past the header block

  const http::WireCopyStats stats = http::GetWireCopyStats();
  EXPECT_EQ(stats.zero_copy_bodies, 1u);
  // The only copies allowed are serialization-side (building the wire
  // string), never the parse-side body extraction.
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(WireParserZeroCopyTest, PipelinedTailSurvivesZeroCopyExtraction) {
  http::Request big = http::MakeRequest(http::Method::kPost, "/big");
  big.body = std::string(32 * 1024, 'z');
  const http::Request small = http::MakeRequest(http::Method::kGet, "/after");

  http::WireParser parser(http::WireParser::Mode::kRequest);
  parser.Feed(http::SerializeRequest(big) + http::SerializeRequest(small));
  ASSERT_TRUE(parser.HasMessage());
  Result<http::Request> first = parser.TakeRequest();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->body.size(), 32u * 1024u);
  // The relinquished slab froze with the big body; the pipelined tail moved
  // to a fresh slab and still parses.
  ASSERT_TRUE(parser.HasMessage());
  Result<http::Request> second = parser.TakeRequest();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->path, "/after");
}

TEST(WireParserZeroCopyTest, SmallBodiesAreCopiedAndCounted) {
  http::ResetWireCopyStats();
  http::Request request = http::MakeRequest(http::Method::kPost, "/small");
  request.body = std::string(100, 's');

  http::WireParser parser(http::WireParser::Mode::kRequest);
  parser.Feed(http::SerializeRequest(request));
  Result<http::Request> parsed = parser.TakeRequest();
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->body.size(), 100u);
  EXPECT_EQ(http::GetWireCopyStats().zero_copy_bodies, 0u);
  EXPECT_GE(http::GetWireCopyStats().body_copies, 1u);
}

TEST(WireParserZeroCopyTest, BufferCompactsAfterLargeFramedMessage) {
  http::Request big = http::MakeRequest(http::Method::kPost, "/big");
  big.body = std::string(1024 * 1024, 'q');

  http::WireParser parser(http::WireParser::Mode::kRequest);
  parser.Feed(http::SerializeRequest(big));
  EXPECT_GE(parser.buffer_capacity(), 1024u * 1024u);
  ASSERT_TRUE(parser.TakeRequest().ok());
  // The megabyte slab went with the body; the parser must not still pin
  // peak-request memory for the (empty) keep-alive tail.
  EXPECT_LE(parser.buffer_capacity(), 2 * http::WireParser::kZeroCopyBodyBytes);
}

// ---------------------------------------------- Redfish cache slab sharing ---

class ZeroCopyCacheTest : public ::testing::Test {
 protected:
  ZeroCopyCacheTest() : service_(tree_, redfish::SchemaRegistry::BuiltIn()) {
    EXPECT_TRUE(tree_.Create("/redfish/v1", "#ServiceRoot.v1_15_0.ServiceRoot",
                             Json::Obj({{"Name", "root"}}))
                    .ok());
    EXPECT_TRUE(tree_.CreateCollection("/redfish/v1/Fabrics",
                                       "#FabricCollection.FabricCollection", "Fabrics")
                    .ok());
    EXPECT_TRUE(tree_.Create("/redfish/v1/Fabrics/f", "#Fabric.v1_3_0.Fabric",
                             Json::Obj({{"Name", "f"}, {"FabricType", "CXL"}}))
                    .ok());
    EXPECT_TRUE(tree_.AddMember("/redfish/v1/Fabrics", "/redfish/v1/Fabrics/f").ok());
  }

  http::Response Get(const std::string& target) {
    return service_.Handle(http::MakeRequest(http::Method::kGet, target));
  }

  redfish::ResourceTree tree_;
  redfish::RedfishService service_;
};

// The zero-copy contract end to end: the miss builds one slab, the cache
// stores it, and every subsequent hit hands out THE SAME slab — pointer
// identity, not just equal bytes.
TEST_F(ZeroCopyCacheTest, CacheHitsShareOneBodySlab) {
  const http::Response miss = Get("/redfish/v1/Fabrics/f");
  ASSERT_EQ(miss.status, 200);
  ASSERT_NE(miss.body.slab(), nullptr);

  const http::Response hit1 = Get("/redfish/v1/Fabrics/f");
  const http::Response hit2 = Get("/redfish/v1/Fabrics/f");
  ASSERT_EQ(hit1.status, 200);
  ASSERT_EQ(hit2.status, 200);
  EXPECT_EQ(hit1.body.slab().get(), miss.body.slab().get());
  EXPECT_EQ(hit2.body.slab().get(), miss.body.slab().get());
  EXPECT_EQ(hit1.body, miss.body);

  // Hits also carry the pre-serialized head: the transport writes it
  // verbatim, serializing nothing.
  EXPECT_NE(hit1.wire_head(), nullptr);
  EXPECT_EQ(hit1.wire_head().get(), hit2.wire_head().get());
}

TEST_F(ZeroCopyCacheTest, MutationInvalidatesSharedSlab) {
  const http::Response before = Get("/redfish/v1/Fabrics/f");
  ASSERT_TRUE(tree_.Patch("/redfish/v1/Fabrics/f", Json::Obj({{"MaxZones", 4}})).ok());
  const http::Response after = Get("/redfish/v1/Fabrics/f");
  ASSERT_EQ(after.status, 200);
  EXPECT_NE(after.body.slab().get(), before.body.slab().get());
  EXPECT_NE(after.headers.Get("ETag"), before.headers.Get("ETag"));
  // The old response still reads its (now superseded) slab safely.
  EXPECT_GT(before.body.size(), 0u);
}

TEST_F(ZeroCopyCacheTest, MutatingHeadersAfterAttachInvalidatesWireHead) {
  (void)Get("/redfish/v1/Fabrics/f");  // seed the cache
  http::Response hit = Get("/redfish/v1/Fabrics/f");
  ASSERT_NE(hit.wire_head(), nullptr);
  hit.headers.Set("X-Trace-Id", "abc123");  // post-handler stamp
  EXPECT_EQ(hit.wire_head(), nullptr);  // stale head must not hit the wire
}

// ------------------------------------------- wire-level writev resumption ---

/// `rcvbuf` > 0 sets SO_RCVBUF before connect, so the advertised window
/// (fixed at the handshake) stays small.
int ConnectLoopback(std::uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)), 0);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

/// The largest send buffer the kernel may autotune a TCP socket to: the max
/// field of net.ipv4.tcp_wmem, or 4 MiB where that is unreadable.
std::size_t TcpWmemMax() {
  std::size_t min = 0, def = 0, max = 0;
  std::ifstream in("/proc/sys/net/ipv4/tcp_wmem");
  if (in >> min >> def >> max && max > 0) return max;
  return 4 * 1024 * 1024;
}

// A response larger than the server's largest possible send buffer cannot
// leave in one sendmsg: the flush returns partial writes that stop inside
// the body iovec, and the outbox must resume mid-segment without corrupting
// or duplicating bytes. The body is sized past tcp_wmem's max (autotuning
// can grow the send buffer that far) and the client's receive window is
// pinned small, so the partial write does not depend on kernel tuning or
// on how fast the client drains. The body is then compared byte-for-byte.
TEST(ZeroCopyWireTest, PartialWritevResumesMidIovecWithoutCorruption) {
  // A patterned body makes any mid-iovec resumption bug (skipped or
  // repeated range) corrupt the comparison, not just the length.
  std::string expected(TcpWmemMax() + 2 * 1024 * 1024, '\0');
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = static_cast<char>('A' + (i % 23));
  }
  auto slab = std::make_shared<const std::string>(expected);

  http::TcpServer server;
  ASSERT_TRUE(server
                  .Start([slab](const http::Request&) {
                    http::Response response;
                    response.status = 200;
                    response.body = http::Body(slab);
                    response.headers.Set("Content-Type", "application/octet-stream");
                    return response;
                  },
                  0)
                  .ok());

  const int fd = ConnectLoopback(server.port(), 64 * 1024);
  const std::string wire = "GET /blob HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));

  http::WireParser parser(http::WireParser::Mode::kResponse);
  std::vector<char> chunk(64 * 1024);
  while (!parser.HasMessage()) {
    const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
    ASSERT_GT(n, 0) << "connection died mid-response";
    parser.Feed(std::string_view(chunk.data(), static_cast<std::size_t>(n)));
  }
  Result<http::Response> response = parser.TakeResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  ASSERT_EQ(response->body.size(), expected.size());
  EXPECT_TRUE(response->body == expected);  // full byte-for-byte comparison

  ::close(fd);
  EXPECT_GT(server.stats().io_send_calls, 1u);  // provably flushed in parts
  server.Stop();
}

// The server-side copy discipline on the wire: with a pre-attached head and
// a slab body, queueing and flushing a response performs no user-space body
// copy at all (the recv/parse side of the echoed GET is header-only).
TEST(ZeroCopyWireTest, CachedStyleResponseMovesZeroBodyBytesInUserSpace) {
  auto slab = std::make_shared<const std::string>(std::string(256 * 1024, 'c'));
  http::TcpServer server;
  ASSERT_TRUE(server
                  .Start([slab](const http::Request&) {
                    http::Response response;
                    response.status = 200;
                    response.body = http::Body(slab);
                    response.headers.Set("Content-Type", "application/octet-stream");
                    response.set_wire_head(std::make_shared<const std::string>(
                        http::SerializeResponseHead(response, slab->size())));
                    return response;
                  },
                  0)
                  .ok());
  const int fd = ConnectLoopback(server.port());
  const std::string wire = "GET /c HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));

  http::ResetWireCopyStats();  // measure only the response path from here
  http::WireParser parser(http::WireParser::Mode::kResponse);
  std::vector<char> chunk(64 * 1024);
  while (!parser.HasMessage()) {
    const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
    ASSERT_GT(n, 0);
    parser.Feed(std::string_view(chunk.data(), static_cast<std::size_t>(n)));
  }
  Result<http::Response> response = parser.TakeResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body.size(), slab->size());
  ::close(fd);
  // Server: head slab + Connection fragment + body slab via sendmsg — no
  // serialization, no concatenation. Client: ≥4 KiB body extracted as a
  // slab view. Either side copying body bytes in user space trips this.
  EXPECT_EQ(http::GetWireCopyStats().body_bytes_copied, 0u);
  server.Stop();
}

}  // namespace
}  // namespace ofmf
