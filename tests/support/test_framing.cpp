// Tests for LineBuffer: reassembly across fragments and the line-length
// cap every reader of the daemon protocol shares.
#include <gtest/gtest.h>

#include <string>

#include "support/framing.hpp"

namespace iw {
namespace {

void feed(LineBuffer& buf, const std::string& bytes) {
  buf.feed(bytes.data(), bytes.size());
}

TEST(LineBuffer, ReassemblesLinesAcrossFragments) {
  LineBuffer buf;
  std::string line;
  feed(buf, "ab");
  EXPECT_FALSE(buf.next_line(line));
  feed(buf, "c\nde\n\nf");
  ASSERT_TRUE(buf.next_line(line));
  EXPECT_EQ(line, "abc");
  ASSERT_TRUE(buf.next_line(line));
  EXPECT_EQ(line, "de");
  ASSERT_TRUE(buf.next_line(line));
  EXPECT_EQ(line, "");
  EXPECT_FALSE(buf.next_line(line));
  EXPECT_FALSE(buf.overlong());
}

TEST(LineBuffer, TwoMebibytesWithoutNewlineAreRejected) {
  LineBuffer buf;
  std::string line;
  const std::string chunk(64 * 1024, 'x');
  for (int i = 0; i < 32; ++i) feed(buf, chunk);  // 2 MiB, no '\n'
  EXPECT_FALSE(buf.next_line(line));
  EXPECT_TRUE(buf.overlong());
  // A '\n' arriving afterwards does not make the line acceptable.
  feed(buf, "\n");
  EXPECT_FALSE(buf.next_line(line));
  EXPECT_TRUE(buf.overlong());
}

TEST(LineBuffer, LineOfExactlyTheCapStillParses) {
  LineBuffer buf;
  std::string line;
  const std::string at_cap(LineBuffer::kMaxLineBytes, 'y');
  feed(buf, at_cap);
  EXPECT_FALSE(buf.overlong());  // the '\n' may still come
  feed(buf, "\nnext\n");
  ASSERT_TRUE(buf.next_line(line));
  EXPECT_EQ(line.size(), LineBuffer::kMaxLineBytes);
  ASSERT_TRUE(buf.next_line(line));
  EXPECT_EQ(line, "next");
}

TEST(LineBuffer, CompleteLineOneByteOverTheCapIsRejected) {
  LineBuffer buf;
  std::string line;
  feed(buf, std::string(LineBuffer::kMaxLineBytes + 1, 'z') + "\nok\n");
  EXPECT_FALSE(buf.next_line(line));
  EXPECT_TRUE(buf.overlong());
}

TEST(LineBuffer, TenThousandLinesFromOneChunkComeOutInOrder) {
  LineBuffer buf;
  std::string chunk;
  for (int i = 0; i < 10000; ++i) chunk += "line " + std::to_string(i) + "\n";
  feed(buf, chunk);
  std::string line;
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(buf.next_line(line)) << i;
    ASSERT_EQ(line, "line " + std::to_string(i));
  }
  EXPECT_FALSE(buf.next_line(line));
  EXPECT_FALSE(buf.overlong());
}

// The cap counts the bytes of the pending line, not the consumed bytes
// still held before it.
TEST(LineBuffer, CapAppliesToTheLineAfterConsumedLines) {
  LineBuffer buf;
  std::string line;
  feed(buf, "a\nbb\n" + std::string(LineBuffer::kMaxLineBytes, 'y') + "\n");
  ASSERT_TRUE(buf.next_line(line));
  EXPECT_EQ(line, "a");
  EXPECT_FALSE(buf.overlong());
  ASSERT_TRUE(buf.next_line(line));
  EXPECT_EQ(line, "bb");
  ASSERT_TRUE(buf.next_line(line));
  EXPECT_EQ(line, std::string(LineBuffer::kMaxLineBytes, 'y'));

  LineBuffer over;
  feed(over, "a\nbb\n" + std::string(LineBuffer::kMaxLineBytes + 1, 'z') +
                 "\nok\n");
  ASSERT_TRUE(over.next_line(line));
  ASSERT_TRUE(over.next_line(line));
  EXPECT_EQ(line, "bb");
  EXPECT_FALSE(over.next_line(line));
  EXPECT_TRUE(over.overlong());
}

}  // namespace
}  // namespace iw
