// Wire-level message representation for the comm substrate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dinfomap::comm {

/// Matches MPI_ANY_SOURCE semantics in Mailbox::recv.
inline constexpr int kAnySource = -1;

/// Tags at or above this value are reserved for collectives; user code must
/// stay below (checked in Comm::send/recv).
inline constexpr int kCollectiveTagBase = 1 << 30;

/// One in-flight message: source rank, tag, and an opaque payload, framed
/// with the recovery header the fault-injection layer needs. A frame is named
/// by (source, tag, tag_seq): `tag_seq` is its 0-based ordinal among
/// same-tag frames on the (source, dest) channel, and the receiver consumes
/// ordinals in order — one below its consumed count is a duplicate, one above
/// leaves a gap, and every retransmit request asks for (tag, count). `seq`
/// numbers frames per channel across tags; it keys the fault dice and feeds
/// the checksum. `checksum` covers header + payload (comm::frame_checksum)
/// so corruption is detected rather than consumed. All three are written
/// only when fault injection is active — the fault-free transport neither
/// computes nor verifies them.
struct Message {
  int source = 0;
  int tag = 0;
  std::uint64_t seq = 0;
  std::uint64_t tag_seq = 0;
  std::uint64_t checksum = 0;
  std::vector<std::byte> payload;
};

}  // namespace dinfomap::comm
