#ifndef MULTICLUST_COMMON_STRINGS_H_
#define MULTICLUST_COMMON_STRINGS_H_

#include <string>
#include <vector>

namespace multiclust {

/// Splits `s` on the separator character; empty fields are preserved.
std::vector<std::string> SplitString(const std::string& s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string TrimString(const std::string& s);

/// Parses a double; returns false on malformed input or trailing junk.
bool ParseDouble(const std::string& s, double* out);

}  // namespace multiclust

#endif  // MULTICLUST_COMMON_STRINGS_H_
