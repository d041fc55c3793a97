// A move-only, type-erased `void()` callable for simulator events.
//
// Every simulated hop is one or two events, so the callable that carries an
// event is on the hottest path of every experiment. std::function copies on
// the way out of a priority queue and keeps only 16 bytes inline, so a
// network delivery closure (`this` plus a Message) costs a heap allocation
// per stage. EventFn stores captures of up to kInlineSize bytes in place,
// falls back to the heap for larger ones, and is move-only, so a queued
// callback is never copied.
#ifndef BLOCKPLANE_SIM_EVENT_FN_H_
#define BLOCKPLANE_SIM_EVENT_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace blockplane::sim {

class EventFn {
 public:
  /// Inline capture budget: `this` plus a net::Message (56 bytes).
  static constexpr size_t kInlineSize = 64;

  /// True when a callable of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineSize && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  EventFn() noexcept = default;

  /// Implicit, so lambdas and std::function arguments convert at call sites.
  template <typename F,
            typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, EventFn> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  EventFn(F&& fn) {
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  void operator()() { ops_->invoke(storage_); }

 private:
  /// Destroys the held callable (if any) and leaves this empty.
  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs into `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*static_cast<Fn*>(s))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* s) noexcept { static_cast<Fn*>(s)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**static_cast<Fn**>(s))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* s) noexcept { delete *static_cast<Fn**>(s); },
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace blockplane::sim

#endif  // BLOCKPLANE_SIM_EVENT_FN_H_
