#include "util/input.hpp"

#include <filesystem>
#include <system_error>

namespace cosched {

bool open_input(std::ifstream& in, const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) return false;
  in.open(path);
  return in.good();
}

}  // namespace cosched
