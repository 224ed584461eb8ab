//===--- VirtualTimeCheck.cpp - sias-virtual-time -------------------------===//

#include "VirtualTimeCheck.h"

#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "clang/Lex/Lexer.h"
#include "llvm/ADT/SmallVector.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace sias {

namespace {
constexpr llvm::StringRef kWaiverToken = "SIAS_WALLCLOCK_OK";
constexpr unsigned kWaiverWindowLines = 5;
} // namespace

VirtualTimeCheck::VirtualTimeCheck(StringRef Name, ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context),
      AllowedPaths(Options.get("AllowedPaths",
                               "bench/;tests/;examples/;tools/")) {}

void VirtualTimeCheck::storeOptions(ClangTidyOptions::OptionMap &Opts) {
  Options.store(Opts, "AllowedPaths", AllowedPaths);
}

void VirtualTimeCheck::registerMatchers(MatchFinder *Finder) {
  Finder->addMatcher(
      callExpr(callee(functionDecl(hasAnyName(
                   "::std::chrono::system_clock::now",
                   "::std::chrono::steady_clock::now",
                   "::std::chrono::high_resolution_clock::now", "::time",
                   "::rand", "::srand", "::std::rand", "::std::srand",
                   "::__rdtsc", "::__builtin_ia32_rdtsc"))))
          .bind("wallclock"),
      this);
  Finder->addMatcher(
      cxxConstructExpr(
          hasType(cxxRecordDecl(hasName("::std::random_device"))))
          .bind("randomdev"),
      this);
}

bool VirtualTimeCheck::isAllowedPath(StringRef File) const {
  llvm::SmallVector<StringRef, 8> Allowed;
  StringRef(AllowedPaths).split(Allowed, ';', -1, false);
  for (StringRef Fragment : Allowed)
    if (!Fragment.empty() && File.contains(Fragment))
      return true;
  return false;
}

bool VirtualTimeCheck::isWaived(const SourceManager &SM,
                                SourceLocation Loc) const {
  SourceLocation Exp = SM.getExpansionLoc(Loc);
  FileID FID = SM.getFileID(Exp);
  unsigned Line = SM.getExpansionLineNumber(Exp);
  bool Invalid = false;
  StringRef Buffer = SM.getBufferData(FID, &Invalid);
  if (Invalid)
    return false;
  llvm::SmallVector<StringRef, 0> Lines;
  Buffer.split(Lines, '\n');
  unsigned Lo = Line > kWaiverWindowLines ? Line - kWaiverWindowLines : 1;
  for (unsigned L = Lo; L <= Line && L <= Lines.size(); ++L) {
    StringRef Text = Lines[L - 1];
    if (Text.contains(kWaiverToken) && !Text.contains("#define"))
      return true;
  }
  return false;
}

void VirtualTimeCheck::check(const MatchFinder::MatchResult &Result) {
  const Expr *E = Result.Nodes.getNodeAs<Expr>("wallclock");
  if (E == nullptr)
    E = Result.Nodes.getNodeAs<Expr>("randomdev");
  if (E == nullptr)
    return;
  const SourceManager &SM = *Result.SourceManager;
  SourceLocation Loc = SM.getExpansionLoc(E->getBeginLoc());
  if (Loc.isInvalid() || !SM.isInMainFile(Loc))
    return;
  if (isAllowedPath(SM.getFilename(Loc)))
    return;
  if (isWaived(SM, Loc))
    return;
  diag(Loc,
       "wall-clock or nondeterministic source breaks virtual-time "
       "determinism (SIAS_CRASH_SEED replays, device simulation); use "
       "VirtualClock / sias::Random, or waive with "
       "SIAS_WALLCLOCK_OK(\"why\")");
}

} // namespace sias
} // namespace tidy
} // namespace clang
