// Workload `serve`: an in-process KvServer over the range-partitioned
// two-shard index, driven over loopback by the benchmark's own closed-loop
// client. About 95% of requests are GETs of preloaded keys (Zipf 0.99) and 5%
// are PUTs of held-back fresh keys spread across the key range. A run repeats
// whole rounds (fresh server, preload, the same 409,600 requests, read-back)
// until it has measured its seconds, so every run ends with the same index.
// The client sends lock-step bursts of 64 requests on one connection, each
// burst in one send() once every response of the one before has arrived.
// Frames follow docs/PROTOCOL.md and are encoded here, so the client's cost
// does not change with the server's code.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>

#include "common/epoch.h"
#include "probes.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kPreloadKeys = 131'072;
constexpr int kWorkers = 1;
constexpr int kConns = 1;
constexpr size_t kWindow = 64;      // requests per burst and connection
constexpr uint64_t kPutEvery = 20;  // request i of a connection is a PUT when i % 20 == 19
constexpr size_t kRoundRequests = 409'600;   // per round, over all connections
constexpr size_t kRoundPuts = kRoundRequests / kPutEvery;
constexpr size_t kMissChecks = 10'000;    // held-back keys read before any PUT
constexpr size_t kProbeInserts = 10'000;  // traced runs: fresh keys inserted by the probe
constexpr size_t kBatch = 16;

// docs/PROTOCOL.md, version 1.
constexpr size_t kHeaderBytes = 16;
constexpr uint8_t kVersion = 1;
constexpr uint8_t kOpGet = 0x01;
constexpr uint8_t kOpPut = 0x02;
constexpr uint8_t kStatusOk = 0x80;
constexpr uint8_t kStatusNotFound = 0x81;

void PutLe(std::vector<uint8_t>* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint64_t GetLe(const uint8_t* p, int bytes) {
  uint64_t v = 0;
  for (int i = bytes - 1; i >= 0; --i) v = v << 8 | p[i];
  return v;
}

struct Request {
  uint8_t op = kOpGet;
  Key key = 0;
  uint64_t sent_ns = 0;
};

struct Conn {
  int fd = -1;
  std::vector<uint8_t> out;
  size_t unsent = 0;  // requests at the back of `inflight` not yet handed to send()
  std::vector<uint8_t> in;
  size_t in_len = 0;
  std::deque<Request> inflight;  // responses arrive in request order
};

// Produces the next request for connection `c`; false when there is none.
using Source = std::function<bool(int c, Request*)>;
// Consumes one response: its request, status, body and arrival time.
using Sink = std::function<void(int c, const Request&, uint8_t status, const uint8_t* body,
                                uint32_t body_len, uint64_t now)>;

class LoopbackClient {
 public:
  ~LoopbackClient() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
  }

  bool Connect(uint16_t port, int n) {
    for (int i = 0; i < n; ++i) {
      Conn c;
      c.fd = socket(AF_INET, SOCK_STREAM, 0);
      if (c.fd < 0) return false;
      conns_.push_back(std::move(c));
      const int fd = conns_.back().fd;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) return false;
      fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_.back().in.resize(1 << 16);
    }
    return true;
  }

  /// Issues bursts of kWindow requests on every connection, each burst once
  /// every response of the one before has arrived, until `deadline` or until
  /// `source` runs dry; then waits for the responses still due. Lock-step
  /// bursts give the server the same pattern of reads, coalesced batches and
  /// writes on every burst, where a sliding window drifts between coalescing
  /// states from second to second.
  /// \return false on a connection or protocol error.
  bool Drive(uint64_t deadline, const Source& source, const Sink& sink) {
    bool issuing = true;
    std::vector<pollfd> fds(conns_.size());
    for (;;) {
      size_t pending = 0;
      for (const Conn& conn : conns_) pending += conn.inflight.size();
      if (pending == 0) {
        if (issuing && NowNs() >= deadline) issuing = false;
        Request req;
        for (int c = 0; issuing && c < static_cast<int>(conns_.size()); ++c) {
          Conn& conn = conns_[c];
          while (conn.inflight.size() < kWindow) {
            if (!source(c, &req)) {
              issuing = false;
              break;
            }
            Encode(req, &conn.out);
            conn.inflight.push_back(req);
            ++conn.unsent;
            ++pending;
          }
        }
        if (pending == 0) return true;
      }
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (!Send(conns_[c])) return false;
      }
      for (size_t c = 0; c < conns_.size(); ++c) {
        fds[c] = pollfd{conns_[c].fd, static_cast<short>(POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT)), 0};
      }
      if (poll(fds.data(), fds.size(), 1000) < 0 && errno != EINTR) return false;
      for (size_t c = 0; c < conns_.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        if (!Receive(static_cast<int>(c), sink)) return false;
      }
    }
  }

 private:
  static void Encode(const Request& req, std::vector<uint8_t>* out) {
    const uint32_t body = req.op == kOpPut ? 16 : 8;
    PutLe(out, body, 4);
    out->push_back(kVersion);
    out->push_back(req.op);
    out->push_back(0);  // echo_op
    out->push_back(0);  // reserved
    PutLe(out, req.key, 8);  // request_id: opaque to the server
    PutLe(out, req.key, 8);
    if (req.op == kOpPut) PutLe(out, ValueOf(req.key), 8);
  }

  // One send() of everything queued; the requests it carries are stamped.
  bool Send(Conn& conn) {
    if (conn.out.empty()) return true;
    const uint64_t now = NowNs();
    for (size_t i = conn.inflight.size() - conn.unsent; i < conn.inflight.size(); ++i) {
      conn.inflight[i].sent_ns = now;
    }
    conn.unsent = 0;
    const ssize_t n = send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    conn.out.erase(conn.out.begin(), conn.out.begin() + n);
    return true;
  }

  bool Receive(int c, const Sink& sink) {
    Conn& conn = conns_[c];
    const ssize_t n = recv(conn.fd, conn.in.data() + conn.in_len, conn.in.size() - conn.in_len, 0);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    const uint64_t now = NowNs();
    conn.in_len += static_cast<size_t>(n);
    size_t off = 0;
    while (conn.in_len - off >= kHeaderBytes) {
      const uint8_t* h = conn.in.data() + off;
      const uint32_t body_len = static_cast<uint32_t>(GetLe(h, 4));
      if (body_len > conn.in.size() - kHeaderBytes) return false;
      if (conn.in_len - off < kHeaderBytes + body_len) break;
      if (conn.inflight.empty()) return false;  // a response nobody asked for
      const Request req = conn.inflight.front();
      conn.inflight.pop_front();
      if (h[4] != kVersion || h[6] != req.op || GetLe(h + 8, 8) != req.key) return false;
      sink(c, req, h[5], h + kHeaderBytes, body_len, now);
      off += kHeaderBytes + body_len;
    }
    std::memmove(conn.in.data(), conn.in.data() + off, conn.in_len - off);
    conn.in_len -= off;
    return true;
  }

  std::vector<Conn> conns_;
};

}  // namespace

void RunServe(const RunConfig& cfg, Tracer& tracer, Result* r) {
  // Inputs: preloaded keys (sorted) and a shuffled pool of held-back fresh
  // keys, drawn from one fb-like key set so the PUTs spread across the range.
  const size_t fresh_n = kRoundPuts + kProbeInserts;
  std::vector<Key> all = FbLikeKeys(kPreloadKeys + fresh_n, cfg.seed);
  Rng rng(cfg.seed ^ 0x7365727665ULL);
  for (size_t i = all.size(); i > 1; --i) std::swap(all[i - 1], all[rng.Below(i)]);
  const std::vector<Key> fresh(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(fresh_n));
  std::vector<Key> loaded(all.begin() + static_cast<std::ptrdiff_t>(fresh_n), all.end());
  std::vector<Key>().swap(all);
  std::sort(loaded.begin(), loaded.end());
  std::vector<Value> values(loaded.size());
  for (size_t i = 0; i < loaded.size(); ++i) values[i] = ValueOf(loaded[i]);
  std::vector<std::vector<Key>> streams(kConns);
  for (int c = 0; c < kConns; ++c) {
    streams[c] = ZipfKeyStream(loaded, kRoundRequests / kConns, cfg.seed * 1000 + c);
  }

  alt::server::ServerOptions opts;
  opts.port = 0;  // ephemeral
  opts.num_workers = kWorkers;
  opts.batch_size = kBatch;
  opts.sharded.num_shards = 2;
  opts.sharded.partition = alt::shard::Partition::kRange;

  Tally tally;
  auto expect = [&](const Request& req, uint8_t status, const uint8_t* body, uint32_t len) {
    ++tally.attempted;
    const unsigned long long key = req.key;
    if (req.op == kOpPut) {
      if (status != kStatusOk || len != 1 || body[0] != 1) {
        tally.Wrong("PUT %llu of a fresh key: status 0x%02x", key, status);
      }
    } else if (status != kStatusOk || len != 8 || GetLe(body, 8) != ValueOf(req.key)) {
      tally.Wrong("GET %llu: status 0x%02x", key, status);
    }
  };
  // GETs of fresh[0, n), checked by `sink`.
  auto read_fresh = [&](LoopbackClient& client, size_t n, const Sink& sink) {
    size_t next = 0;
    return client.Drive(
        ~uint64_t{0},
        [&](int, Request* req) {
          if (next == n) return false;
          *req = Request{kOpGet, fresh[next++], 0};
          return true;
        },
        sink);
  };

  double setup_s = 0, preload_s = 0, start_s = 0;
  double server_cpu = 0, server_sys = 0, client_cpu = 0;
  uint64_t measured_requests = 0, flushes = 0, flushed_keys = 0;
  std::vector<double> mops, p50, p99, bytes_per_key;
  std::unique_ptr<alt::server::KvServer> server;
  FpCounters fp_before, fp_after;
  bool ok = true;
  for (uint64_t measured = 0; ok && (mops.empty() || measured < SecondsToNs(cfg.seconds));) {
    if (server) server->Stop();
    server = std::make_unique<alt::server::KvServer>(opts);
    const uint64_t t0 = NowNs();
    alt::Status st = server->Preload(loaded.data(), values.data(), loaded.size());
    const uint64_t t1 = NowNs();
    if (st.ok()) st = server->Start();
    const uint64_t t2 = NowNs();
    if (!st.ok()) {
      r->CheckFailed("server set-up: %s", st.ToString().c_str());
      break;
    }
    if (mops.empty()) {
      setup_s = static_cast<double>(t2 - t0) / 1e9;
      preload_s = static_cast<double>(t1 - t0) / 1e9;
      start_s = static_cast<double>(t2 - t1) / 1e9;
    }
    LoopbackClient client;
    if (!client.Connect(server->port(), kConns)) {
      r->CheckFailed("connect to 127.0.0.1:%u: %s", server->port(), std::strerror(errno));
      break;
    }

    // Held-back keys must miss before they are PUT.
    ok = read_fresh(client, kMissChecks,
                    [&](int, const Request& req, uint8_t status, const uint8_t*, uint32_t,
                        uint64_t) {
                      ++tally.attempted;
                      if (status != kStatusNotFound) {
                        tally.Wrong("GET %llu of a held-back key: status 0x%02x",
                                    static_cast<unsigned long long>(req.key), status);
                      }
                    });

    // The round: each connection issues its share of the requests, every
    // 20th a PUT of the next fresh key.
    std::vector<uint64_t> seq(kConns, 0);
    size_t puts = 0;
    std::vector<uint32_t> get_ns;
    get_ns.reserve(kRoundRequests);
    const alt::server::ServerStats stats_before = server->CollectStats();
    fp_before = FpCounters::Now();
    const CpuTimes proc_before = ProcessCpu();
    const CpuTimes client_before = ThreadCpu();
    const uint64_t start = NowNs();
    ok = ok && client.Drive(
                   ~uint64_t{0},
                   [&](int c, Request* req) {
                     const uint64_t i = seq[c]++;
                     if (i == kRoundRequests / kConns) return false;
                     *req = i % kPutEvery == kPutEvery - 1
                                ? Request{kOpPut, fresh[puts++], 0}
                                : Request{kOpGet, streams[c][i], 0};
                     return true;
                   },
                   [&](int, const Request& req, uint8_t status, const uint8_t* body,
                       uint32_t len, uint64_t now) {
                     expect(req, status, body, len);
                     if (req.op == kOpGet) get_ns.push_back(static_cast<uint32_t>(now - req.sent_ns));
                   });
    const uint64_t wall = NowNs() - start;
    const CpuTimes client_after = ThreadCpu();
    const CpuTimes proc_after = ProcessCpu();
    fp_after = FpCounters::Now();
    const alt::server::ServerStats stats_after = server->CollectStats();
    measured += wall;
    measured_requests += kRoundRequests;
    mops.push_back(static_cast<double>(kRoundRequests) * 1e3 / static_cast<double>(wall));
    p50.push_back(Quantile(get_ns, 0.50));
    p99.push_back(Quantile(get_ns, 0.99));
    const double client_s =
        (client_after.user - client_before.user) + (client_after.sys - client_before.sys);
    client_cpu += client_s;
    server_cpu += (proc_after.user - proc_before.user) + (proc_after.sys - proc_before.sys) -
                  client_s;
    server_sys += (proc_after.sys - proc_before.sys) - (client_after.sys - client_before.sys);
    flushes += stats_after.batch_flushes - stats_before.batch_flushes;
    flushed_keys += stats_after.batch_keys - stats_before.batch_keys;

    // Every PUT key reads back its value.
    ok = ok && read_fresh(client, puts,
                          [&](int, const Request& req, uint8_t status, const uint8_t* body,
                              uint32_t len, uint64_t) { expect(req, status, body, len); });
    alt::shard::ShardedAltIndex& index = server->index();
    if (index.Size() != loaded.size() + puts) {
      r->CheckFailed("Size() %zu != %zu preloaded + %zu PUT", index.Size(), loaded.size(), puts);
    }
    bytes_per_key.push_back(static_cast<double>(index.MemoryUsage()) /
                            static_cast<double>(index.Size()));
  }
  if (!ok) r->CheckFailed("loopback client: connection or framing error");
  r->Merge(tally);
  LogSeries("serve rounds, Mops/s", mops);
  if (!(CentralMean(bytes_per_key) >= 16.0)) {
    r->CheckFailed("bytes_per_key %.3f < 16", CentralMean(bytes_per_key));
  }
  if (client_cpu >= server_cpu) {
    std::fprintf(stderr, "perfbench: client CPU %.2f s is not below the server's %.2f s\n",
                 client_cpu, server_cpu);
  }
  r->Add("setup_s", setup_s, "s");
  r->Add("throughput_mops", CentralMean(mops), "Mops/s");
  r->Add("read_p50_ns", CentralMean(p50), "ns");
  r->Add("read_p99_ns", CentralMean(p99), "ns");
  r->Add("bytes_per_key", CentralMean(bytes_per_key), "B");
  if (!cfg.trace || !server) return;

  const double ops = static_cast<double>(std::max<uint64_t>(measured_requests, 1));
  r->Add("server.cpu_us_per_op", server_cpu * 1e6 / ops, "us");
  r->Add("server.sys_share", server_cpu > 0 ? server_sys / server_cpu : 0.0, "ratio");
  r->Add("client.cpu_us_per_op", client_cpu * 1e6 / ops, "us");
  r->Add("server.batch_occupancy",
         flushes == 0 ? 0.0 : static_cast<double>(flushed_keys) / static_cast<double>(flushes),
         "keys");
  r->Add("shard.preload_s", preload_s, "s");
  r->Add("server.start_s", start_s, "s");
  r->Add("fp.hit_share", FpHitShare(fp_before, fp_after), "ratio");

  // Layer probes on the last round's idle server: the sharded batch lookup,
  // then the core probes on shard 0 with the keys that shard owns.
  alt::shard::ShardedAltIndex& index = server->index();
  std::vector<Span>* buf = tracer.Buffer(kProbeTid);
  const uint16_t shard_batch = tracer.Name("shard.batch");
  const uint16_t probe = tracer.Name("probe");
  const std::vector<Key>& stream = streams[0];
  Value out[kBatch];
  bool found[kBatch];
  for (size_t b = 0; b + 4096 <= stream.size() && b < (size_t{1} << 18); b += 4096) {
    const uint64_t s0 = NowNs();
    for (size_t i = b; i < b + 4096; i += kBatch) {
      index.LookupBatch(&stream[i], kBatch, out, found);
      for (size_t j = 0; j < kBatch; ++j) {
        ++r->attempted;
        if (!found[j] || out[j] != ValueOf(stream[i + j])) r->Wrong("sharded LookupBatch");
      }
    }
    Record(buf, shard_batch, probe, s0, NowNs(), 4096);
  }
  r->Add("shard.batch_ns_per_key", tracer.MedianNs(shard_batch), "ns");

  const Key lo = index.ShardLowerBound(0);
  const Key hi = index.ShardLowerBound(1);
  std::vector<Key> shard_stream, shard_keys;
  for (Key k : stream) {
    if (k >= lo && k < hi) shard_stream.push_back(k);
  }
  for (Key k : loaded) {
    if (k >= lo && k < hi) shard_keys.push_back(k);
  }
  ProbeCore(index.shard(0), shard_stream, shard_keys,
            ProbeOptions{.scans = true, .lookup_paths = true}, tracer, r);
  AddLookupPathMetrics(tracer, PathSpanNames(tracer, "core.lookup."), r);
  // Fresh keys the traffic did not use: timed inserts through the shard layer.
  const std::vector<Key> unused(fresh.begin() + static_cast<std::ptrdiff_t>(kRoundPuts),
                                fresh.end());
  ProbeInserts([&](Key k, Value v, alt::ServedBy* by) { return index.InsertServed(k, v, by); },
               unused, tracer, r);
  std::vector<const alt::AltIndex*> shards;
  size_t started = 0, finished = 0;
  for (size_t i = 0; i < index.num_shards(); ++i) {
    shards.push_back(&index.shard(i));
    const alt::AltIndex::Stats s = index.shard(i).CollectStats();
    started += s.retrain_started;
    finished += s.retrain_finished;
  }
  server->Stop();
  AddStructure(shards, r);
  r->Add("core.retrain_started", static_cast<double>(started), "count");
  r->Add("core.retrain_finished", static_cast<double>(finished), "count");
}

}  // namespace perfbench
