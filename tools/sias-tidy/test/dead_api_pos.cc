// sias-dead-api POSITIVE fixture: functions that only their own declaration
// and definition name, an unjustified waiver and two stale ones. Each line
// marked BAD must be flagged, and no other. The fixture is its own header
// and its only consumer.

#define SIAS_DEAD_API_OK(justification) \
  static_assert(sizeof(justification) > 1, "needs a justification")

namespace fixture {

class Pool {
 public:
  int Fetch(int page);
  int num_frames() const { return frames_; }  // BAD: nothing calls it
  double HitRate() const;  // BAD: defined below, called nowhere

  SIAS_DEAD_API_OK("stale: Pin has a caller");  // BAD: nothing to waive
  int Pin(int page) { return Fetch(page); }

  SIAS_DEAD_API_OK("");  // BAD: a waiver must say why
  void SetHookForTest(void (*hook)(int));

 private:
  int frames_ = 0;
  SIAS_DEAD_API_OK("stale: no declaration follows");  // BAD: nothing below
};

int Pool::Fetch(int page) { return page + frames_; }
double Pool::HitRate() const { return frames_ ? 1.0 : 0.0; }

const char* FaultKindName(int kind);  // BAD: declared and defined, no call
const char* FaultKindName(int kind) { return kind ? "cut" : "none"; }

int main() {
  Pool pool;
  return pool.Pin(1);
}

}  // namespace fixture
