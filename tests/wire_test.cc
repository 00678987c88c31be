// Tests for the bounded big-endian wire codec.

#include "src/core/wire.h"

#include <gtest/gtest.h>

namespace xk {
namespace {

TEST(WireTest, WriteReadRoundTrip) {
  uint8_t buf[32] = {};
  WireWriter w(buf);
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  w.PutIpAddr(IpAddr(192, 168, 1, 7));
  w.PutEthAddr(EthAddr::FromIndex(5));
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.pos(), 1u + 2 + 4 + 4 + 6);

  WireReader r(std::span<const uint8_t>(buf, w.pos()));
  EXPECT_EQ(r.GetU8(), 0xAB);
  EXPECT_EQ(r.GetU16(), 0x1234);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetIpAddr(), IpAddr(192, 168, 1, 7));
  EXPECT_EQ(r.GetEthAddr(), EthAddr::FromIndex(5));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);  // the reader span was sized to w.pos()
}

TEST(WireTest, BigEndianLayout) {
  uint8_t buf[4];
  WireWriter w(buf);
  w.PutU32(0x01020304);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[1], 2);
  EXPECT_EQ(buf[2], 3);
  EXPECT_EQ(buf[3], 4);
}

TEST(WireTest, WriterOverflowIsSticky) {
  uint8_t buf[3];
  WireWriter w(buf);
  w.PutU16(1);
  EXPECT_TRUE(w.ok());
  w.PutU16(2);  // overflows
  EXPECT_FALSE(w.ok());
  w.PutU8(3);  // would fit, but the writer already failed at pos 2
  EXPECT_FALSE(w.ok());
}

TEST(WireTest, ReaderUnderflowIsStickyAndZeroFills) {
  uint8_t buf[3] = {1, 2, 3};
  WireReader r(buf);
  EXPECT_EQ(r.GetU16(), 0x0102);
  EXPECT_EQ(r.GetU32(), 0u);  // underflow: zero
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, SkipAndZeros) {
  uint8_t buf[8] = {9, 9, 9, 9, 9, 9, 9, 9};
  WireWriter w(buf);
  w.PutZeros(4);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(buf[0], 0);
  EXPECT_EQ(buf[3], 0);
  EXPECT_EQ(buf[4], 9);

  WireReader r(buf);
  r.Skip(6);
  EXPECT_EQ(r.GetU16(), 0x0909);
  EXPECT_TRUE(r.ok());
  r.Skip(1);
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, SingleBitIndexNamesTheOneSetBit) {
  // A fragment mask names its fragment by its one set bit; anything else
  // (no bit, or several) names none.
  struct Row {
    uint16_t mask;
    int index;
  };
  constexpr Row kRows[] = {
      {0, -1}, {1, 0}, {1u << 15, 15}, {3, -1}, {1u << 7, 7}, {0xFFFF, -1},
  };
  for (const Row& row : kRows) {
    EXPECT_EQ(SingleBitIndex(row.mask), row.index) << "mask " << row.mask;
  }
}

TEST(WireTest, IpAddrHelpers) {
  IpAddr a(10, 0, 1, 17);
  EXPECT_EQ(a.ToString(), "10.0.1.17");
  EXPECT_TRUE(a.SameSubnet(IpAddr(10, 0, 1, 200)));
  EXPECT_FALSE(a.SameSubnet(IpAddr(10, 0, 2, 17)));
  EXPECT_TRUE(a.SameSubnet(IpAddr(10, 0, 2, 17), 16));
  EXPECT_TRUE(a.SameSubnet(IpAddr(99, 99, 99, 99), 0));
  EXPECT_FALSE(a.SameSubnet(IpAddr(10, 0, 1, 16), 32));
}

TEST(WireTest, EthAddrHelpers) {
  EXPECT_TRUE(EthAddr::Broadcast().IsBroadcast());
  EXPECT_FALSE(EthAddr::FromIndex(3).IsBroadcast());
  EXPECT_EQ(EthAddr::FromIndex(3).ToString(), "08:00:20:00:00:03");
  EXPECT_NE(EthAddr::FromIndex(1), EthAddr::FromIndex(2));
}

}  // namespace
}  // namespace xk
