#include "bench.h"

namespace perfbench {

const KindOps& ops_levenshtein();
const KindOps& ops_lcs();
const KindOps& ops_nw();
const KindOps& ops_sw();
const KindOps& ops_gotoh();
const KindOps& ops_dtw();
const KindOps& ops_dither();
const KindOps& ops_checkerboard();
const KindOps& ops_maxnw();
const KindOps& ops_columnmin();

const KindOps& ops(Kind k) {
  switch (k) {
    case Kind::kLevenshtein: return ops_levenshtein();
    case Kind::kLcs: return ops_lcs();
    case Kind::kNeedlemanWunsch: return ops_nw();
    case Kind::kSmithWaterman: return ops_sw();
    case Kind::kGotoh: return ops_gotoh();
    case Kind::kDtw: return ops_dtw();
    case Kind::kDither: return ops_dither();
    case Kind::kCheckerboard: return ops_checkerboard();
    case Kind::kMaxNw: return ops_maxnw();
    case Kind::kColumnMin: return ops_columnmin();
  }
  return ops_levenshtein();
}

const char* to_string(Kind k) {
  switch (k) {
    case Kind::kLevenshtein: return "levenshtein";
    case Kind::kLcs: return "lcs";
    case Kind::kNeedlemanWunsch: return "nw";
    case Kind::kSmithWaterman: return "sw";
    case Kind::kGotoh: return "gotoh";
    case Kind::kDtw: return "dtw";
    case Kind::kDither: return "dither";
    case Kind::kCheckerboard: return "checkerboard";
    case Kind::kMaxNw: return "maxnw";
    case Kind::kColumnMin: return "columnmin";
  }
  return "?";
}

const char* to_string(Tier t) {
  return t == Tier::kFull ? "full" : "frontier";
}

}  // namespace perfbench
