#include <gtest/gtest.h>

#include "src/os/fs.h"

namespace rose {
namespace {

TEST(FsTest, CreateAndReadBack) {
  InMemoryFileSystem fs;
  EXPECT_EQ(fs.Create("/data/a", false), Err::kOk);
  EXPECT_TRUE(fs.Exists("/data/a"));
  EXPECT_EQ(fs.WriteAt("/data/a", 0, "hello"), Err::kOk);
  std::string out;
  EXPECT_EQ(fs.ReadAt("/data/a", 0, 100, &out), Err::kOk);
  EXPECT_EQ(out, "hello");
}

TEST(FsTest, CreateTruncates) {
  InMemoryFileSystem fs;
  fs.WriteAll("/f", "0123456789");
  EXPECT_EQ(fs.Create("/f", /*truncate=*/true), Err::kOk);
  EXPECT_EQ(fs.SizeOf("/f"), 0);
}

TEST(FsTest, ReadAtOffsetAndBeyondEof) {
  InMemoryFileSystem fs;
  fs.WriteAll("/f", "abcdef");
  std::string out;
  EXPECT_EQ(fs.ReadAt("/f", 2, 3, &out), Err::kOk);
  EXPECT_EQ(out, "cde");
  EXPECT_EQ(fs.ReadAt("/f", 10, 3, &out), Err::kOk);
  EXPECT_EQ(out, "");  // EOF: zero bytes.
  EXPECT_EQ(fs.ReadAt("/f", -1, 3, &out), Err::kEINVAL);
  EXPECT_EQ(fs.ReadAt("/missing", 0, 1, &out), Err::kENOENT);
}

TEST(FsTest, WriteAtExtendsWithZeros) {
  InMemoryFileSystem fs;
  fs.WriteAll("/f", "ab");
  EXPECT_EQ(fs.WriteAt("/f", 4, "XY"), Err::kOk);
  EXPECT_EQ(fs.SizeOf("/f"), 6);
  std::string out;
  fs.ReadAt("/f", 0, 6, &out);
  EXPECT_EQ(out, std::string("ab\0\0XY", 6));
}

TEST(FsTest, WriteAtOverwritesInsideAcrossAndAtEof) {
  InMemoryFileSystem fs;
  fs.WriteAll("/f", "abcdef");
  std::string out;
  EXPECT_EQ(fs.WriteAt("/f", 2, "XY"), Err::kOk);  // Inside: size holds.
  fs.ReadAt("/f", 0, 100, &out);
  EXPECT_EQ(out, "abXYef");
  EXPECT_EQ(fs.WriteAt("/f", 4, "1234"), Err::kOk);  // Across EOF.
  fs.ReadAt("/f", 0, 100, &out);
  EXPECT_EQ(out, "abXY1234");
  EXPECT_EQ(fs.WriteAt("/f", 8, "!"), Err::kOk);  // At EOF: an append.
  fs.ReadAt("/f", 0, 100, &out);
  EXPECT_EQ(out, "abXY1234!");
}

TEST(FsTest, UnlinkAndRename) {
  InMemoryFileSystem fs;
  fs.WriteAll("/a", "x");
  EXPECT_EQ(fs.Rename("/a", "/b"), Err::kOk);
  EXPECT_FALSE(fs.Exists("/a"));
  EXPECT_EQ(*fs.ReadAll("/b"), "x");
  EXPECT_EQ(fs.Unlink("/b"), Err::kOk);
  EXPECT_EQ(fs.Unlink("/b"), Err::kENOENT);
  EXPECT_EQ(fs.Rename("/nope", "/c"), Err::kENOENT);
}

TEST(FsTest, RenameOverwritesDestination) {
  InMemoryFileSystem fs;
  fs.WriteAll("/src", "new");
  fs.WriteAll("/dst", "old");
  EXPECT_EQ(fs.Rename("/src", "/dst"), Err::kOk);
  EXPECT_EQ(*fs.ReadAll("/dst"), "new");
}

TEST(FsTest, StatReportsSizeAndMode) {
  InMemoryFileSystem fs;
  fs.WriteAll("/f", "12345");
  FileStat st;
  EXPECT_EQ(fs.Stat("/f", &st), Err::kOk);
  EXPECT_EQ(st.size, 5);
  EXPECT_EQ(st.mode, 0644u);
  EXPECT_FALSE(st.is_directory);
  EXPECT_EQ(fs.Stat("/missing", &st), Err::kENOENT);
}

TEST(FsTest, ChmodAffectsAccess) {
  InMemoryFileSystem fs;
  fs.WriteAll("/key", "secret");
  EXPECT_EQ(fs.Chmod("/key", 0000), Err::kOk);
  std::string out;
  EXPECT_EQ(fs.ReadAt("/key", 0, 10, &out), Err::kEACCES);
  EXPECT_EQ(fs.WriteAt("/key", 0, "x"), Err::kEACCES);
  FileStat st;
  EXPECT_EQ(fs.Stat("/key", &st), Err::kEACCES);
  EXPECT_EQ(fs.Chmod("/key", 0644), Err::kOk);
  EXPECT_EQ(fs.ReadAt("/key", 0, 10, &out), Err::kOk);
}

TEST(FsTest, MkdirAndDirectorySemantics) {
  InMemoryFileSystem fs;
  EXPECT_EQ(fs.Mkdir("/dir"), Err::kOk);
  EXPECT_TRUE(fs.IsDirectory("/dir"));
  EXPECT_EQ(fs.Mkdir("/dir"), Err::kEEXIST);
  EXPECT_EQ(fs.Create("/dir", false), Err::kEISDIR);
  EXPECT_EQ(fs.Unlink("/dir"), Err::kEISDIR);
}

TEST(FsTest, ParentMustNotBeFile) {
  InMemoryFileSystem fs;
  fs.WriteAll("/file", "x");
  EXPECT_EQ(fs.Create("/file/child", false), Err::kENOTDIR);
}

TEST(FsTest, TruncateResizes) {
  InMemoryFileSystem fs;
  fs.WriteAll("/f", "abcdef");
  EXPECT_EQ(fs.Truncate("/f", 2), Err::kOk);
  EXPECT_EQ(*fs.ReadAll("/f"), "ab");
  EXPECT_EQ(fs.Truncate("/f", 4), Err::kOk);
  EXPECT_EQ(fs.SizeOf("/f"), 4);
  EXPECT_EQ(fs.Truncate("/missing", 0), Err::kENOENT);
}

TEST(FsTest, ListFilesByPrefix) {
  InMemoryFileSystem fs;
  fs.WriteAll("/data/a", "1");
  fs.WriteAll("/data/b", "2");
  fs.WriteAll("/other/c", "3");
  const auto files = fs.ListFiles("/data/");
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "/data/a");
  EXPECT_EQ(files[1], "/data/b");
}

TEST(FsTest, TotalBytesAndWipe) {
  InMemoryFileSystem fs;
  fs.WriteAll("/a", "123");
  fs.WriteAll("/b", "4567");
  EXPECT_EQ(fs.TotalBytes(), 7);
  fs.Wipe();
  EXPECT_EQ(fs.TotalBytes(), 0);
  EXPECT_FALSE(fs.Exists("/a"));
}

TEST(ErrnoTest, NamesRoundTrip) {
  EXPECT_EQ(ErrName(Err::kENOENT), "ENOENT");
  EXPECT_EQ(ErrName(Err::kETIMEDOUT), "ETIMEDOUT");
  EXPECT_EQ(ErrFromName("EACCES"), Err::kEACCES);
  EXPECT_EQ(ErrFromName("bogus"), Err::kOk);
  for (Err err : {Err::kEIO, Err::kEPIPE, Err::kECONNREFUSED, Err::kENOSPC}) {
    EXPECT_EQ(ErrFromName(std::string(ErrName(err))), err);
  }
}

}  // namespace
}  // namespace rose
