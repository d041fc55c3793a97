// A move-only, type-erased `R()` callable with inline storage.
//
// Simulator events are built once per message hop and run once, so the
// callable that carries them is on the hottest path of every experiment. std::function keeps only 16 bytes inline (a
// `this` plus a Message already costs a heap allocation) and copies where a
// move would do. InlineFn<R, N> stores captures of up to N bytes in place,
// falls back to the heap for larger ones, and is move-only, so a queued
// callable is never copied. It is null when default-constructed, built from
// nullptr, or moved from.
#ifndef BLOCKPLANE_COMMON_INLINE_FN_H_
#define BLOCKPLANE_COMMON_INLINE_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace blockplane::common {

template <typename R, size_t N>
class InlineFn {
 public:
  /// Inline capture budget in bytes.
  static constexpr size_t kInlineSize = N;

  /// True when a callable of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineSize && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}

  /// Implicit, so lambdas and std::function arguments convert at call sites.
  template <typename F,
            typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InlineFn> &&
                                        std::is_invocable_r_v<R, Fn&>>>
  InlineFn(F&& fn) {
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { Take(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Reset();
      Take(other);
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()() { return ops_->invoke(storage_); }

 private:
  /// Moves `other`'s callable into this (empty) object; `other` ends empty.
  void Take(InlineFn& other) noexcept {
    ops_ = std::exchange(other.ops_, nullptr);
    if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
  }

  /// Destroys the held callable (if any) and leaves this empty.
  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  struct Ops {
    R (*invoke)(void* storage);
    /// Move-constructs into `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      // static_cast<void> discards a result when R is void.
      [](void* s) { return static_cast<R>((*static_cast<Fn*>(s))()); },
      [](void* dst, void* src) noexcept {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* s) noexcept { static_cast<Fn*>(s)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* s) { return static_cast<R>((**static_cast<Fn**>(s))()); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* s) noexcept { delete *static_cast<Fn**>(s); },
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace blockplane::common

#endif  // BLOCKPLANE_COMMON_INLINE_FN_H_
