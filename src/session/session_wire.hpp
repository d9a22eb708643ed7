// Shared-memory wire state of the TCP session transport.
//
// Segment geometry (one ShmSegment of kTcpSegmentBytes, created by the
// client backend and attached by the `icsfuzz-shim-target --tcp` server
// through the usual ICSFUZZ_OOP_SHM environment pair):
//
//   [0, cov::kMapSize)   raw edge-hit map — the server traces every
//                        session into it (one trace per session)
//   [kAuxOffset, ...)    oop::AuxResult block, published at session end
//                        (events + faults; the response bytes travel over
//                        the socket, so the aux response stays empty)
//   [kSyncOffset, +64)   the sync block below
//
// The sync block solves the one thing a raw protocol socket cannot: the
// client must know when message i's response is COMPLETE (these protocols
// answer with zero, one or several frames — "no more bytes yet" and "no
// response" are indistinguishable on the wire). The server publishes a
// monotonic served-message counter and the byte length of the last
// response; the client sends message i, waits for served == i+1, then
// reads exactly last_response_len bytes. Socket traffic therefore stays
// pure protocol bytes in both directions — nothing about the transport
// leaks into the fuzzed stream. Counters are campaign-monotonic (never
// reset per session) so a stale read from a previous session can never be
// mistaken for this one's progress.
//
// Sync block layout:
//
//   +0   u64 served      messages answered (response fully written)
//   +8   u64 sessions    sessions completed (map + aux block published)
//   +16  u32 resp_len    byte length of the last served message's response
//   +24  u32 wake        futex word, bumped after every counter publish
//
// The client never polls: it reads `wake`, re-checks its counter, then
// FUTEX_WAITs on `wake` (sync_wait). Every publisher stores its counter
// first, bumps `wake` second and FUTEX_WAKEs last; the kernel compares
// `wake` with the client's earlier read atomically before sleeping, so a
// publish that lands between the client's check and its sleep makes the
// wait return at once instead of losing the wake-up. The word lives in a
// segment mapped by two processes, so the futex calls use the shared form
// (no FUTEX_PRIVATE_FLAG). Publishers are the shim's `--tcp` server
// (tcp_server.cpp) and the injection runtime's write/send/close
// interposers (preload_runtime.cpp); the only waiter is the kTcp client
// backend (tcp_backend.cpp).
#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdint>

#include "exec_oop/exec_protocol.hpp"

namespace icsfuzz::session {

inline constexpr std::size_t kSyncOffset = oop::kSegmentBytes;
inline constexpr std::size_t kSyncBytes = 64;
inline constexpr std::size_t kTcpSegmentBytes = kSyncOffset + kSyncBytes;

namespace wire_detail {
inline std::uint8_t* served_addr(std::uint8_t* segment) {
  return segment + kSyncOffset;
}
inline std::uint8_t* sessions_addr(std::uint8_t* segment) {
  return segment + kSyncOffset + 8;
}
inline std::uint8_t* response_len_addr(std::uint8_t* segment) {
  return segment + kSyncOffset + 16;
}
inline std::uint32_t* wake_addr(std::uint8_t* segment) {
  return reinterpret_cast<std::uint32_t*>(segment + kSyncOffset + 24);
}

/// Bumps the wake word (after the caller's counter store) and wakes every
/// waiter on it.
inline void wake(std::uint8_t* segment) {
  std::uint32_t* word = wake_addr(segment);
  std::atomic_ref<std::uint32_t>(*word).fetch_add(1,
                                                  std::memory_order_release);
  ::syscall(SYS_futex, word, FUTEX_WAKE, INT_MAX, nullptr, nullptr, 0);
}
}  // namespace wire_detail

/// Server side: publishes "message done" — the response length first, the
/// served count next (release), so a client that observes the new count
/// also observes the matching length; then wakes the client.
inline void sync_publish_served(std::uint8_t* segment, std::uint64_t served,
                                std::uint32_t response_len) {
  std::atomic_ref<std::uint32_t>(
      *reinterpret_cast<std::uint32_t*>(wire_detail::response_len_addr(segment)))
      .store(response_len, std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t>(
      *reinterpret_cast<std::uint64_t*>(wire_detail::served_addr(segment)))
      .store(served, std::memory_order_release);
  wire_detail::wake(segment);
}

inline std::uint64_t sync_load_served(std::uint8_t* segment) {
  return std::atomic_ref<std::uint64_t>(
             *reinterpret_cast<std::uint64_t*>(wire_detail::served_addr(segment)))
      .load(std::memory_order_acquire);
}

inline std::uint32_t sync_load_response_len(std::uint8_t* segment) {
  return std::atomic_ref<std::uint32_t>(
             *reinterpret_cast<std::uint32_t*>(
                 wire_detail::response_len_addr(segment)))
      .load(std::memory_order_relaxed);
}

/// Server side: publishes "session done" (map + aux block fully written),
/// then wakes the client.
inline void sync_publish_session_done(std::uint8_t* segment,
                                      std::uint64_t sessions) {
  std::atomic_ref<std::uint64_t>(
      *reinterpret_cast<std::uint64_t*>(wire_detail::sessions_addr(segment)))
      .store(sessions, std::memory_order_release);
  wire_detail::wake(segment);
}

inline std::uint64_t sync_load_sessions_done(std::uint8_t* segment) {
  return std::atomic_ref<std::uint64_t>(
             *reinterpret_cast<std::uint64_t*>(
                 wire_detail::sessions_addr(segment)))
      .load(std::memory_order_acquire);
}

/// Client side: the wake word. Read it BEFORE re-checking a counter, so a
/// publish after the check makes the following sync_wait return at once.
inline std::uint32_t sync_load_wake(std::uint8_t* segment) {
  return std::atomic_ref<std::uint32_t>(*wire_detail::wake_addr(segment))
      .load(std::memory_order_acquire);
}

/// Client side: sleeps until the wake word moves off `seen` (true) or
/// `timeout_ms` passes first (false; < 0 waits without limit). Spurious
/// wake-ups and EINTR go back to sleep against the same absolute deadline.
inline bool sync_wait(std::uint8_t* segment, std::uint32_t seen,
                      int timeout_ms) {
  struct timespec deadline {};
  if (timeout_ms >= 0) {
    ::clock_gettime(CLOCK_MONOTONIC, &deadline);
    deadline.tv_sec += timeout_ms / 1000;
    deadline.tv_nsec += static_cast<long>(timeout_ms % 1000) * 1000000L;
    if (deadline.tv_nsec >= 1000000000L) {
      ++deadline.tv_sec;
      deadline.tv_nsec -= 1000000000L;
    }
  }
  std::uint32_t* word = wire_detail::wake_addr(segment);
  while (sync_load_wake(segment) == seen) {
    // FUTEX_WAIT_BITSET takes an absolute CLOCK_MONOTONIC deadline, so
    // sleeping again after an interruption does not stretch the wait.
    const long rc = ::syscall(SYS_futex, word, FUTEX_WAIT_BITSET, seen,
                              timeout_ms >= 0 ? &deadline : nullptr, nullptr,
                              FUTEX_BITSET_MATCH_ANY);
    // EAGAIN (the word moved before the kernel compared it) and EINTR
    // re-check the word; ETIMEDOUT, or a futex failure no retry can fix,
    // ends the wait.
    if (rc != 0 && errno != EAGAIN && errno != EINTR) {
      return sync_load_wake(segment) != seen;
    }
  }
  return true;
}

}  // namespace icsfuzz::session
