// FunctionRef — a non-owning reference to a callable, for callbacks that
// run only during the call they are passed to (index probes, tree scans).
//
// std::function owns a copy of its callable and spills it to the heap when
// the captures outgrow its small buffer (16 bytes in libstdc++), so a
// lambda capturing three references allocates on every probe. FunctionRef
// stores a pointer to the callable and a trampoline: two words, no
// allocation. The callable must outlive the reference, which holds for the
// usual use, a lambda written as the argument of the call.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace sias {

template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor): like std::function
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace sias
