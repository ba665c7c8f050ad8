// Must-fire: hash-order range-for over an unordered member declared in a
// paired header (a different stem; paired because this file defines Tally's
// members). Nothing in this file names an unordered container.
#include "paired_tally.hpp"

double Tally::total() const {
  double sum = 0.0;
  for (const auto& [key, value] : totals_) {
    sum += value;
  }
  return sum;
}
