// sias-epoch-escape NEGATIVE fixture: the sanctioned idioms — hold the
// pointer in locals, copy the pointee out, or return it from a function
// that is itself annotated. Must produce zero findings.

#define SIAS_EPOCH_PROTECTED

namespace fixture {

struct Entry {
  int value;
};

SIAS_EPOCH_PROTECTED const Entry* LoadEntry();

// OK: pointee value is copied out before the epoch scope ends.
void CopyOut(int* out) {
  const Entry* e = LoadEntry();
  *out = e->value;
}

// OK: comparing and deriving plain values from the protected pointer.
bool Exists() {
  const Entry* e = LoadEntry();
  return e != nullptr;
}

// OK: an annotated function may hand the pointer onward — its caller
// inherits the same contract.
SIAS_EPOCH_PROTECTED const Entry* Reload() { return LoadEntry(); }

// OK: an annotated member belongs to an object that lives inside its
// owner's pin (a resumable read task), so it may hold the pointer, and
// values copied out of it are clean.
struct ReadTask {
  SIAS_EPOCH_PROTECTED const Entry* entry_ = nullptr;
  int copied_ = 0;

  void Load() { entry_ = LoadEntry(); }
  void Copy() { copied_ = entry_->value; }
};

}  // namespace fixture
