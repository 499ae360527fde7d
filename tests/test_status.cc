#include "common/status.h"

#include <gtest/gtest.h>

#include "common/result.h"

namespace hamming {
namespace {

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(Status, CarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad h");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad h");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad h");
}

TEST(Status, AllFactoriesMapToPredicates) {
  EXPECT_TRUE(Status::KeyError("x").IsKeyError());
  EXPECT_TRUE(Status::IndexError("x").IsIndexError());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::ExecutionError("x").IsExecutionError());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
}

TEST(Status, ServingCodesRenderTheirNames) {
  EXPECT_EQ(Status::ResourceExhausted("queue full").ToString(),
            "ResourceExhausted: queue full");
}

TEST(Status, CopyAndMoveSemantics) {
  Status st = Status::IOError("disk");
  Status copy = st;
  EXPECT_TRUE(copy.IsIOError());
  EXPECT_TRUE(st.IsIOError());
  Status moved = std::move(st);
  EXPECT_TRUE(moved.IsIOError());
  Status assigned;
  assigned = moved;
  EXPECT_EQ(assigned.message(), "disk");
}

TEST(Status, ReturnNotOkMacroPropagates) {
  auto fails = [] { return Status::KeyError("missing"); };
  auto wrapper = [&fails]() -> Status {
    HAMMING_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsKeyError());
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsStatus) {
  Result<int> r(Status::OutOfRange("too big"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfRange());
}

TEST(Result, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string s = std::move(r).ValueOrDie();
  EXPECT_EQ(s, "payload");
}

TEST(Result, AssignOrReturnMacro) {
  auto provider = [](bool ok) -> Result<int> {
    if (ok) return 7;
    return Status::IOError("nope");
  };
  auto consumer = [&provider](bool ok) -> Status {
    HAMMING_ASSIGN_OR_RETURN(int v, provider(ok));
    EXPECT_EQ(v, 7);
    return Status::OK();
  };
  EXPECT_TRUE(consumer(true).ok());
  EXPECT_TRUE(consumer(false).IsIOError());
}

}  // namespace
}  // namespace hamming
