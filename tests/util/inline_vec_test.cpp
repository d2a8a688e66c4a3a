// inline_vec_test — InlineVec<T, N>: elements live inside the object up to
// N, move to one heap block above it, keep their capacity across clear(),
// and copy/move like a vector whichever storage they are in.
#include "util/inline_vec.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>

namespace mobiwlan {
namespace {

using Vec4 = InlineVec<int, 4>;

bool inside(const Vec4& v) {
  const auto* lo = reinterpret_cast<const unsigned char*>(&v);
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  return p >= lo && p < lo + sizeof(Vec4);
}

Vec4 filled(int n) {
  Vec4 v;
  for (int i = 0; i < n; ++i) v.push_back(10 * i);
  return v;
}

void expect_elements(const Vec4& v, int n) {
  ASSERT_EQ(v.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], 10 * i);
}

TEST(InlineVec, StoresUpToNInsideTheObject) {
  Vec4 v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), 4u);
  for (int i = 0; i < 4; ++i) v.push_back(10 * i);
  EXPECT_FALSE(v.on_heap());
  EXPECT_TRUE(inside(v));
  expect_elements(v, 4);
  EXPECT_EQ(v.front(), 0);
  EXPECT_EQ(v.back(), 30);
  EXPECT_EQ(v.end() - v.begin(), 4);
}

TEST(InlineVec, SpillsToTheHeapAboveN) {
  Vec4 v = filled(4);
  v.push_back(40);
  EXPECT_TRUE(v.on_heap());
  EXPECT_FALSE(inside(v));
  EXPECT_GE(v.capacity(), 5u);
  expect_elements(v, 5);

  InlineVec<double, 2> sized(7, 1.5);
  EXPECT_TRUE(sized.on_heap());
  ASSERT_EQ(sized.size(), 7u);
  for (const double x : sized) EXPECT_EQ(x, 1.5);
}

TEST(InlineVec, ClearAndShrinkKeepTheCapacity) {
  Vec4 heap = filled(9);
  const std::size_t cap = heap.capacity();
  const int* block = heap.data();
  heap.clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.capacity(), cap);
  for (int i = 0; i < 9; ++i) heap.push_back(10 * i);
  EXPECT_EQ(heap.data(), block) << "refill within capacity reallocated";
  heap.resize(2);
  EXPECT_EQ(heap.capacity(), cap);
  expect_elements(heap, 2);

  Vec4 local = filled(3);
  local.clear();
  EXPECT_FALSE(local.on_heap());
  EXPECT_EQ(local.capacity(), 4u);
}

TEST(InlineVec, ResizeFillsOnlyTheNewTail) {
  Vec4 v = filled(2);
  v.resize(4, 7);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[1], 10);
  EXPECT_EQ(v[2], 7);
  EXPECT_EQ(v[3], 7);
  v.pop_back();
  EXPECT_EQ(v.size(), 3u);
  v.reserve(16);
  EXPECT_TRUE(v.on_heap());
  EXPECT_EQ(v.capacity(), 16u);
  EXPECT_EQ(v[2], 7);
}

TEST(InlineVec, CopiesAreIndependentInEitherStorage) {
  for (const int n : {3, 6}) {
    const Vec4 src = filled(n);
    Vec4 copy(src);
    expect_elements(copy, n);
    EXPECT_NE(copy.data(), src.data());
    EXPECT_EQ(copy.on_heap(), n > 4);
    copy[0] = -1;
    EXPECT_EQ(src[0], 0);

    Vec4 assigned = filled(5);
    assigned = src;
    expect_elements(assigned, n);
    assigned = assigned;  // self-assignment keeps the contents
    expect_elements(assigned, n);
  }
}

TEST(InlineVec, MovesStealHeapBlocksAndCopyInlineElements) {
  Vec4 heap = filled(6);
  const int* block = heap.data();
  Vec4 moved(std::move(heap));
  EXPECT_EQ(moved.data(), block) << "moving a spilled vector copied it";
  expect_elements(moved, 6);
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.on_heap());
  heap.push_back(5);  // a moved-from vector is reusable
  EXPECT_EQ(heap[0], 5);

  Vec4 local = filled(3);
  Vec4 moved_local(std::move(local));
  EXPECT_TRUE(inside(moved_local));
  expect_elements(moved_local, 3);
  EXPECT_TRUE(local.empty());

  Vec4 target = filled(8);
  target = std::move(moved_local);
  EXPECT_FALSE(target.on_heap()) << "move-assign kept the old heap block";
  expect_elements(target, 3);
  target = std::move(moved);
  EXPECT_EQ(target.data(), block);
  expect_elements(target, 6);
}

}  // namespace
}  // namespace mobiwlan
