// A FIFO that allocates nothing until its first push.
//
// libstdc++ allocates a std::deque's map and first node (576 B) when the
// deque is constructed, and again for the source when one is moved. A
// socket carries several queues that most sockets never use; at fig12's
// peak, about 97 MB of the heap was such deques. LazyDeque builds its
// deque on the first push; from then on it is exactly that std::deque, so
// its memory and its ordering are a deque's.
//
// It is not a vector-backed ring: completion queues that hold every
// completion of a run until a final drain would pay a doubling vector's
// peak (rd_lossy's own peak RSS rose 9.18 -> 10.55 MB with one).
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

namespace dgiwarp {

template <typename T>
class LazyDeque {
 public:
  using iterator = typename std::deque<T>::iterator;

  bool empty() const { return !q_ || q_->empty(); }
  std::size_t size() const { return q_ ? q_->size() : 0; }

  T& front() { return q_->front(); }
  T& back() { return q_->back(); }

  void push_back(const T& v) { deque().push_back(v); }
  void push_back(T&& v) { deque().push_back(std::move(v)); }
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    return deque().emplace_back(std::forward<Args>(args)...);
  }
  void pop_front() { q_->pop_front(); }
  void pop_back() { q_->pop_back(); }
  /// Empties the queue; like std::deque::clear, keeps its first node.
  void clear() {
    if (q_) q_->clear();
  }

  // Value-initialized deque iterators compare equal, so an unused queue
  // iterates as empty.
  iterator begin() { return q_ ? q_->begin() : iterator{}; }
  iterator end() { return q_ ? q_->end() : iterator{}; }

 private:
  std::deque<T>& deque() {
    if (!q_) q_.emplace();
    return *q_;
  }

  std::optional<std::deque<T>> q_;
};

}  // namespace dgiwarp
