#include "comm/socket_transport.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace dinfomap::comm {

namespace {

// ---- wire format ----------------------------------------------------------
// 48-byte header + payload, native byte order (the mesh is same-host; a
// cross-host TCP variant would pin endianness here). `kind` discriminates
// data frames from the retransmit RPC and the shutdown handshake.
constexpr std::uint32_t kMagic = 0x64696d70;  // "dimp"

enum WireKind : std::uint8_t {
  kHello = 1,      ///< first frame on a connection; src = connecting rank
  kData = 2,       ///< an application frame (payload follows)
  kRetx = 3,       ///< RPC: redeliver frame (tag, ordinal = seq field) of
                   ///< you→me from your send log
  kRetxReply = 4,  ///< RPC verdict; seq field carries the RetransmitOutcome
  kBye = 5,        ///< sender is done for good; no further requests will come
};

struct WireHeader {
  std::uint32_t magic = kMagic;
  std::uint8_t kind = 0;
  std::uint8_t pad[3] = {0, 0, 0};
  std::int32_t src = 0;
  std::int32_t tag = 0;
  std::uint64_t seq = 0;
  std::uint64_t tag_seq = 0;
  std::uint64_t checksum = 0;
  std::uint64_t len = 0;
};
static_assert(sizeof(WireHeader) == 48, "wire header layout drifted");

/// Read exactly n bytes; false on EOF or error (both mean the peer is gone).
bool read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::byte*>(buf);
  while (n > 0) {
    const ssize_t got = ::recv(fd, p, n, 0);
    if (got > 0) {
      p += got;
      n -= static_cast<std::size_t>(got);
      continue;
    }
    if (got < 0 && (errno == EINTR)) continue;
    return false;  // 0 = orderly EOF; <0 = reset/shutdown
  }
  return true;
}

/// Write exactly n bytes; MSG_NOSIGNAL so a dead peer yields EPIPE, not
/// SIGPIPE. False on any error.
bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::byte*>(buf);
  while (n > 0) {
    const ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
    if (put > 0) {
      p += put;
      n -= static_cast<std::size_t>(put);
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void bind_unix(int fd, const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  DINFOMAP_REQUIRE_MSG(path.size() < sizeof(addr.sun_path),
                       "socket path too long for AF_UNIX: " << path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  DINFOMAP_REQUIRE_MSG(
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0,
      "bind(" << path << ") failed: " << std::strerror(errno));
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

std::string SocketTransport::socket_path(const std::string& dir, int rank) {
  return dir + "/" + std::to_string(rank) + ".sock";
}

SocketTransport::SocketTransport(int rank, int size,
                                 SocketTransportOptions options,
                                 TransportTuning tuning)
    : rank_(rank),
      size_(size),
      options_(std::move(options)),
      tuning_(tuning),
      faults_enabled_(tuning.faults.any()),
      fds_(static_cast<std::size_t>(size), -1),
      peer_eof_(static_cast<std::size_t>(size)),
      peer_bye_(static_cast<std::size_t>(size)) {
  DINFOMAP_REQUIRE_MSG(rank >= 0 && rank < size,
                       "socket transport: rank " << rank << " out of [0, "
                                                 << size << ")");
  validate_fault_plan(tuning_.faults, size);
  write_mutexes_.reserve(size);
  for (int r = 0; r < size; ++r)
    write_mutexes_.push_back(std::make_unique<util::Mutex>());
  if (faults_enabled_) {
    out_.reserve(size);
    for (int r = 0; r < size; ++r)
      out_.push_back(std::make_unique<SendChannel>(rank, r, tuning_.faults,
                                                   tuning_.retransmit_window));
  }
  try {
    connect_mesh(options_.connect_timeout_ms);
  } catch (...) {
    shutdown_and_join(/*linger=*/false);
    throw;
  }
  readers_.reserve(size);
  for (int s = 0; s < size; ++s) {
    if (s == rank_) continue;
    readers_.emplace_back([this, s] { reader_loop(s); });
  }
  wd_since_ = std::chrono::steady_clock::now();
}

SocketTransport::~SocketTransport() {
  shutdown_and_join(
      /*linger=*/!linger_abandoned_.load(std::memory_order_acquire));
}

void SocketTransport::connect_mesh(unsigned connect_timeout_ms) {
  using clock = std::chrono::steady_clock;
  // Everyone binds their listener first, then dials lower ranks; connects
  // complete against the kernel backlog, so nobody needs to interleave
  // accept() with connect() and the rendezvous cannot deadlock.
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  DINFOMAP_REQUIRE_MSG(listen_fd_ >= 0,
                       "socket() failed: " << std::strerror(errno));
  bind_unix(listen_fd_, socket_path(options_.dir, rank_));
  DINFOMAP_REQUIRE_MSG(::listen(listen_fd_, size_) == 0,
                       "listen() failed: " << std::strerror(errno));

  const auto deadline =
      clock::now() + std::chrono::milliseconds(connect_timeout_ms);
  for (int s = 0; s < rank_; ++s) {
    int fd = -1;
    for (;;) {
      fd = connect_unix(socket_path(options_.dir, s));
      if (fd >= 0) break;
      if (clock::now() >= deadline)
        throw CommFault("socket transport: rank " + std::to_string(rank_) +
                            " could not reach rank " + std::to_string(s) +
                            " within " + std::to_string(connect_timeout_ms) +
                            " ms — worker never came up",
                        s, /*tag=*/-1, CommFault::Kind::kPeerExited);
      // dlint:allow(sleep-sync): connect retry backoff against a peer that
      // has not bound its socket yet; nothing to wait on until it exists
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    WireHeader hello;
    hello.kind = kHello;
    hello.src = rank_;
    DINFOMAP_REQUIRE_MSG(write_all(fd, &hello, sizeof(hello)),
                         "hello to rank " << s << " failed");
    fds_[static_cast<std::size_t>(s)] = fd;
  }
  for (int expected = size_ - 1 - rank_; expected > 0; --expected) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    DINFOMAP_REQUIRE_MSG(fd >= 0,
                         "accept() failed: " << std::strerror(errno));
    WireHeader hello;
    DINFOMAP_REQUIRE_MSG(
        read_exact(fd, &hello, sizeof(hello)) && hello.magic == kMagic &&
            hello.kind == kHello && hello.src > rank_ && hello.src < size_,
        "socket transport: bad hello on accepted connection");
    fds_[static_cast<std::size_t>(hello.src)] = fd;
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

// ---- send path ------------------------------------------------------------

bool SocketTransport::write_data_frame(int peer, const Message& m) {
  WireHeader h;
  h.kind = kData;
  h.src = m.source;
  h.tag = m.tag;
  h.seq = m.seq;
  h.tag_seq = m.tag_seq;
  h.checksum = m.checksum;
  h.len = m.payload.size();
  util::MutexLock lock(*write_mutexes_[static_cast<std::size_t>(peer)]);
  const int fd = fds_[static_cast<std::size_t>(peer)];
  if (fd < 0) return false;
  if (!write_all(fd, &h, sizeof(h))) return false;
  return m.payload.empty() ||
         write_all(fd, m.payload.data(), m.payload.size());
}

bool SocketTransport::write_control(int peer, std::uint8_t kind, int tag,
                                    std::uint64_t word) {
  WireHeader h;
  h.kind = kind;
  h.src = rank_;
  h.tag = tag;
  h.seq = word;
  util::MutexLock lock(*write_mutexes_[static_cast<std::size_t>(peer)]);
  const int fd = fds_[static_cast<std::size_t>(peer)];
  return fd >= 0 && write_all(fd, &h, sizeof(h));
}

void SocketTransport::stall(int dest) {
  const FaultPlan& plan = tuning_.faults;
  if (faults_enabled_) out_channel(dest).count_stall();
  if (plan.stall_exits) {
    // Model a crash, not a hang: die without unwinding, exactly as a killed
    // worker would. Peers observe connection EOF → CommFault{kPeerExited}.
    LOG_WARN << "fault plan: rank " << rank_ << " exiting mid-send (crash)";
    std::_Exit(kStallExitCode);
  }
  LOG_WARN << "fault plan: rank " << rank_ << " stalling mid-send";
  while (!shutdown_.load(std::memory_order_acquire))
    // dlint:allow(sleep-sync): fault-plan stall — the hang is the scenario
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  throw CommAborted("stalled rank released by shutdown");
}

void SocketTransport::send_frame(int dest, int tag,
                                 std::span<const std::byte> data) {
  DINFOMAP_REQUIRE(dest >= 0 && dest < size_);
  note_progress();
  Message m;
  m.source = rank_;
  m.tag = tag;
  m.payload.assign(data.begin(), data.end());

  if (dest == rank_) {
    // Self-delivery is a local copy in any real transport: no framing, no
    // fault dice — identical to the in-process backend.
    inbox_.deliver(std::move(m));
    return;
  }

  if (!faults_enabled_) {
    if (!write_data_frame(dest, m)) {
      peer_eof_[static_cast<std::size_t>(dest)].store(
          true, std::memory_order_release);
      throw CommFault("send: connection to rank " + std::to_string(dest) +
                          " is gone (peer exited)",
                      dest, tag, CommFault::Kind::kPeerExited);
    }
    return;
  }

  const FaultPlan& plan = tuning_.faults;
  const auto nsent = remote_sends_.fetch_add(1, std::memory_order_relaxed);
  if (rank_ == plan.stall_rank && nsent >= plan.stall_after_sends)
    stall(dest);  // never returns

  for (const Message& f : out_channel(dest).send(std::move(m))) {
    if (!write_data_frame(dest, f)) {
      peer_eof_[static_cast<std::size_t>(dest)].store(
          true, std::memory_order_release);
      throw CommFault("send: connection to rank " + std::to_string(dest) +
                          " is gone (peer exited)",
                      dest, tag, CommFault::Kind::kPeerExited);
    }
  }
}

// ---- receive path ---------------------------------------------------------

void SocketTransport::set_waiting(bool waiting) {
  if (!waiting) return;
  // Re-arm the local watchdog at the start of every blocking receive.
  wd_last_progress_ = progress_.load(std::memory_order_relaxed);
  wd_since_ = std::chrono::steady_clock::now();
}

void SocketTransport::check_liveness(int source, int tag) {
  if (shutdown_.load(std::memory_order_acquire))
    throw CommAborted("recv aborted: transport shut down");

  // Crash detection: the awaited peer's connection is closed and nothing
  // matching is queued — the data can never arrive.
  if (source == kAnySource) {
    bool all_gone = true;
    for (int s = 0; s < size_; ++s) {
      if (s == rank_) continue;
      if (!peer_eof_[static_cast<std::size_t>(s)].load(
              std::memory_order_acquire)) {
        all_gone = false;
        break;
      }
    }
    if (all_gone && !inbox_.probe(source, tag))
      throw CommFault("recv: every peer's connection is gone (peers exited)",
                      kAnySource, tag, CommFault::Kind::kPeerExited);
  } else if (source != rank_ &&
             peer_eof_[static_cast<std::size_t>(source)].load(
                 std::memory_order_acquire) &&
             !inbox_.probe(source, tag)) {
    throw CommFault("recv: rank " + std::to_string(source) +
                        " exited with no matching frame queued (tag " +
                        std::to_string(tag) + ")",
                    source, tag, CommFault::Kind::kPeerExited);
  }

  // Hang detection: no transport progress since this receive began.
  if (tuning_.watchdog_timeout_ms > 0) {
    const auto cur = progress_.load(std::memory_order_relaxed);
    const auto now = std::chrono::steady_clock::now();
    if (cur != wd_last_progress_) {
      wd_last_progress_ = cur;
      wd_since_ = now;
    } else if (now - wd_since_ >
               std::chrono::milliseconds(tuning_.watchdog_timeout_ms)) {
      throw CommFault(
          "watchdog: rank " + std::to_string(rank_) +
              " made no transport progress for " +
              std::to_string(tuning_.watchdog_timeout_ms) +
              " ms blocked on source " + std::to_string(source) + " tag " +
              std::to_string(tag) + " — awaited rank presumed stalled",
          source, tag, CommFault::Kind::kStalled);
    }
  }
}

Message SocketTransport::blocking_recv(int source, int tag) {
  // Poll in short slices so EOF and watchdog verdicts surface promptly; the
  // inbox condition variable makes the hit path (frame already queued or
  // arriving) wake immediately.
  constexpr auto kSlice = std::chrono::microseconds(5'000);
  for (;;) {
    auto m = inbox_.try_recv_for(source, tag, kSlice, /*by_min_ordinal=*/false);
    if (m.has_value()) return std::move(*m);
    check_liveness(source, tag);
  }
}

std::optional<Message> SocketTransport::timed_recv(
    int source, int tag, std::chrono::microseconds timeout,
    bool by_min_ordinal) {
  auto m = inbox_.try_recv_for(source, tag, timeout, by_min_ordinal);
  if (!m.has_value()) check_liveness(source, tag);
  return m;
}

void SocketTransport::requeue(Message m) { inbox_.deliver(std::move(m)); }

bool SocketTransport::probe(int source, int tag) {
  return inbox_.probe(source, tag);
}

// ---- retransmit RPC (requester side) --------------------------------------

RetransmitOutcome SocketTransport::request_retransmit(int source, int tag,
                                                     std::uint64_t ordinal) {
  {
    util::MutexLock lock(rpc_mutex_);
    rpc_have_reply_ = false;
  }
  auto& eof = peer_eof_[static_cast<std::size_t>(source)];
  if (eof.load(std::memory_order_acquire) ||
      !write_control(source, kRetx, tag, ordinal)) {
    eof.store(true, std::memory_order_release);
    return RetransmitOutcome::kNoneSafe;  // check_liveness owns the diagnosis
  }
  // A frozen peer still answers — its reader threads service retransmits
  // even while its comm thread sleeps (mirroring the in-process backend,
  // where a stalled rank's send log stays queryable in shared memory). So a
  // missing verdict within the deadline means the peer's *service* died.
  const unsigned deadline_ms = tuning_.watchdog_timeout_ms > 0
                                   ? tuning_.watchdog_timeout_ms
                                   : 30'000;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  util::MutexLock lock(rpc_mutex_);
  while (!rpc_have_reply_) {
    if (shutdown_.load(std::memory_order_acquire))
      throw CommAborted("retransmit request aborted: transport shut down");
    if (eof.load(std::memory_order_acquire))
      return RetransmitOutcome::kNoneSafe;
    if (lock.wait_until(rpc_cv_, deadline) == std::cv_status::timeout &&
        std::chrono::steady_clock::now() >= deadline) {
      throw CommFault("retransmit request: rank " + std::to_string(source) +
                          " did not answer within " +
                          std::to_string(deadline_ms) + " ms — presumed stalled",
                      source, tag, CommFault::Kind::kStalled);
    }
  }
  return static_cast<RetransmitOutcome>(rpc_reply_);
}

// ---- reader threads -------------------------------------------------------

void SocketTransport::serve_retransmit(int peer, int tag,
                                       std::uint64_t ordinal) {
  Message copy;
  const auto verdict = out_.empty()
                           ? RetransmitOutcome::kNoneSafe
                           : out_channel(peer).lookup(tag, ordinal, copy);
  // Frame before verdict, on the same connection: the requester's reader
  // queues the redelivered frame before the RPC completes, so `kRedelivered`
  // always means "it is in your inbox now" — the in-process ordering.
  if (verdict == RetransmitOutcome::kRedelivered)
    (void)write_data_frame(peer, copy);
  (void)write_control(peer, kRetxReply, tag,
                      static_cast<std::uint64_t>(verdict));
}

void SocketTransport::reader_loop(int peer) {
  const int fd = fds_[static_cast<std::size_t>(peer)];
  for (;;) {
    WireHeader h;
    if (!read_exact(fd, &h, sizeof(h))) break;
    if (h.magic != kMagic) {
      LOG_WARN << "socket transport: bad magic from rank " << peer
               << "; dropping connection";
      break;
    }
    std::vector<std::byte> payload(static_cast<std::size_t>(h.len));
    if (h.len != 0 && !read_exact(fd, payload.data(), payload.size())) break;
    switch (h.kind) {
      case kData: {
        Message m;
        m.source = h.src;
        m.tag = h.tag;
        m.seq = h.seq;
        m.tag_seq = h.tag_seq;
        m.checksum = h.checksum;
        m.payload = std::move(payload);
        try {
          inbox_.deliver(std::move(m));
        } catch (const CommAborted&) {
          return;  // shutting down
        }
        progress_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case kRetx:
        serve_retransmit(peer, h.tag, h.seq);
        break;
      case kRetxReply: {
        util::MutexLock lock(rpc_mutex_);
        rpc_reply_ = h.seq;
        rpc_have_reply_ = true;
        rpc_cv_.notify_all();
        break;
      }
      case kBye:
        peer_bye_[static_cast<std::size_t>(peer)].store(
            true, std::memory_order_release);
        break;
      default:
        LOG_WARN << "socket transport: unknown frame kind "
                 << static_cast<int>(h.kind) << " from rank " << peer;
        break;
    }
  }
  peer_eof_[static_cast<std::size_t>(peer)].store(true,
                                                  std::memory_order_release);
  // Wake a comm thread parked on the RPC reply slot — its peer may be gone.
  util::MutexLock lock(rpc_mutex_);
  rpc_cv_.notify_all();
}

// ---- shutdown -------------------------------------------------------------

void SocketTransport::shutdown_and_join(bool linger) {
  if (linger) {
    // Graceful close: a peer may still need retransmits of frames the fault
    // plan dropped from our *final* sends. Announce bye (we will request
    // nothing more), then keep serving until every peer has said bye too (or
    // its connection died), bounded by linger_timeout_ms.
    for (int s = 0; s < size_; ++s) {
      if (s == rank_ || fds_[static_cast<std::size_t>(s)] < 0) continue;
      (void)write_control(s, kBye, 0, 0);
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.linger_timeout_ms);
    for (;;) {
      bool all_done = true;
      for (int s = 0; s < size_; ++s) {
        if (s == rank_ || fds_[static_cast<std::size_t>(s)] < 0) continue;
        if (!peer_bye_[static_cast<std::size_t>(s)].load(
                std::memory_order_acquire) &&
            !peer_eof_[static_cast<std::size_t>(s)].load(
                std::memory_order_acquire)) {
          all_done = false;
          break;
        }
      }
      if (all_done || std::chrono::steady_clock::now() >= deadline) break;
      // dlint:allow(sleep-sync): shutdown drain polls per-peer EOF flags
      // under a deadline; the reader threads own the fds we would select on
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  shutdown_.store(true, std::memory_order_release);
  inbox_.poison();
  {
    util::MutexLock lock(rpc_mutex_);
    rpc_cv_.notify_all();
  }
  for (int s = 0; s < size_; ++s) {
    const int fd = fds_[static_cast<std::size_t>(s)];
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);  // unblocks the reader thread
  }
  for (auto& t : readers_) {
    if (t.joinable()) t.join();
  }
  readers_.clear();
  for (int s = 0; s < size_; ++s) {
    int& fd = fds_[static_cast<std::size_t>(s)];
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(socket_path(options_.dir, rank_).c_str());
}

Transport::Stats SocketTransport::stats() {
  Stats st;
  for (const auto& ch : out_) st.injected += ch->injected();
  st.inbox_depth_high_water = inbox_.depth_high_water();
  st.inbox_delivered = inbox_.delivered();
  return st;
}

}  // namespace dinfomap::comm
