// sias-dead-api NEGATIVE fixture: every declared function has a caller or
// is exempt (constructor, operator, override, deleted), and the one test
// hook carries a justified waiver. Must produce zero findings.

#include <memory>

#define SIAS_DEAD_API_OK(justification) \
  static_assert(sizeof(justification) > 1, "needs a justification")

namespace fixture {

class Table {
 public:
  explicit Table(int pages) : pages_(pages) {}
  Table(const Table&) = delete;
  virtual ~Table() = default;

  virtual int Scan() const = 0;
  bool operator==(const Table& other) const { return pages_ == other.pages_; }
  int pages() const { return pages_; }
  template <typename T>
  T Convert() const { return static_cast<T>(pages_); }
  static int Budget() { return 16; }

  SIAS_DEAD_API_OK("tests pause scans at each page through it");
  static void SetScanHookForTest(void (*hook)(int));

 private:
  int pages_;
};

class HeapTable : public Table {
 public:
  using Table::Table;
  int Scan() const override { return pages() * 2; }
};

int Checksum(int a, int b);
int (*PickChecksum())(int, int) { return &Checksum; }
int Checksum(int a, int b) { return a ^ b; }

int main() {
  auto t = std::make_unique<HeapTable>(Table::Budget());
  return t->Scan() + t->Convert<int>() + PickChecksum()(1, 2);
}

}  // namespace fixture
