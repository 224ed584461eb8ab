// sias-epoch-escape POSITIVE fixture, annotated members: a member marked
// SIAS_EPOCH_PROTECTED may hold a protected pointer, but is itself
// protected — handing it on to an unannotated member or returning it from
// an unannotated function escapes. Each line marked BAD must be flagged,
// and no other.

#define SIAS_EPOCH_PROTECTED

namespace fixture {

struct Entry {
  int value;
};

SIAS_EPOCH_PROTECTED const Entry* LoadEntry();

struct ReadTask {
  SIAS_EPOCH_PROTECTED const Entry* view_ = nullptr;
  const Entry* kept_ = nullptr;

  void Load() { view_ = LoadEntry(); }
  void Keep() { kept_ = view_; }  // BAD: unannotated member outlives the pin
  const Entry* Hand() const { return view_; }  // BAD: re-published
};

}  // namespace fixture
