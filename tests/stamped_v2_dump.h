// A version-2 RTRC dump whose SCF records carry execution-index stamps, and
// the version-1 encoding of the same nine events, as hex. Both were written
// by the last writer able to emit version 2, at 4 events per frame. Version
// 2 appends two varints (context digest, sequence number) to every SCF
// record; readers still accept it and skip them, so the two dumps must
// decode to the same events and the same canonical hash.
//
// The events, as listed (the stamps are not part of any listing any more):
//
//   1000000000 SCF node=0 pid=100 sys=open fd=-1 file=/data/a errno=ENOENT
//              stamp 9e3779b97f4a7c15/1 (a 10-byte digest varint)
//   1500000000 AF node=1 pid=101 fid=3
//   2000000000 SCF node=1 pid=101 sys=write fd=4 file=/data/log errno=EIO
//              stamp 1234/300
//   2000000000 ND node=0 src=10.0.0.1 dst=10.0.0.2 dur=5000000000 pkts=42
//   3000000000 SCF node=0 pid=100 sys=read fd=5 file=- errno=EBADF
//              stamp 0/0
//   4000000000 PS node=1 pid=101 state=crashed dur=0
//   5000000000 SCF node=0 pid=100 sys=fsync fd=5 file=/data/a errno=ENOSPC
//              stamp ffffffffffffffff/4294967295
//   6000000000 PS node=1 pid=101 state=paused dur=2000000000
//   7000000000 SCF node=1 pid=101 sys=connect fd=6 file=sock:10.0.0.1 errno=ETIMEDOUT
//              stamp 1/1
#ifndef TESTS_STAMPED_V2_DUMP_H_
#define TESTS_STAMPED_V2_DUMP_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace rose {

inline constexpr char kStampedV2DumpHex[] =
    "52545243020000000134000000fba898dd0105072f646174612f61092f646174"
    "612f6c6f670831302e302e302e310831302e302e302e320d736f636b3a31302e"
    "302e302e31023f000000880c74060480a8d6b9070000c8010001010295f8a9fa"
    "97b7de9b9e01018094ebdc030102ca01068094ebdc030002ca0104080205b424"
    "ac02000200030480c8afa0252a0246000000767ea5f70480a8d6b9070000c801"
    "030a0009000080a8d6b9070302ca01020080a8d6b9070000c801070a011cffff"
    "ffffffffffffff01ffffffff0f80a8d6b9070302ca010180d0acf30e02100000"
    "00a69829060180a8d6b9070002ca01100c056e0101030000000000000000";

inline constexpr char kStampedV1DumpHex[] =
    "52545243010000000134000000fba898dd0105072f646174612f61092f646174"
    "612f6c6f670831302e302e302e310831302e302e302e320d736f636b3a31302e"
    "302e302e31023000000012c6963f0480a8d6b9070000c801000101028094ebdc"
    "030102ca01068094ebdc030002ca0104080205000200030480c8afa0252a0235"
    "0000004a611e850480a8d6b9070000c801030a000980a8d6b9070302ca010200"
    "80a8d6b9070000c801070a011c80a8d6b9070302ca010180d0acf30e020e0000"
    "002883bef70180a8d6b9070002ca01100c056e030000000000000000";

// CanonicalBlobHash of the version-1 bytes, computed by the same writer.
inline constexpr uint64_t kStampedDumpCanonicalHash = 0xbae0b277952aff3eULL;

inline std::string FromHex(std::string_view hex) {
  auto nibble = [](char c) { return c <= '9' ? c - '0' : c - 'a' + 10; };
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

}  // namespace rose

#endif  // TESTS_STAMPED_V2_DUMP_H_
