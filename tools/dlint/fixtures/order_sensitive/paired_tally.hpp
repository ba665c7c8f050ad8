// Header half of the paired-header fixture: the unordered member is declared
// here and iterated only in paired_header_fire.cpp.
#pragma once

#include <unordered_map>

class Tally {
 public:
  double total() const;

 private:
  std::unordered_map<int, double> totals_;
};
