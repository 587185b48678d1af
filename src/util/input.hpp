// Opening user input files: config, SWF traces and trace JSONL.
#pragma once

#include <fstream>
#include <string>

namespace cosched {

/// Opens `path` for reading into `in`. False, with `in` left closed, when
/// the path cannot be opened or names a directory: an ifstream opens a
/// directory and reads it as an empty file, so a directory would pass for
/// an empty input. Pipes, devices and /dev/null open as usual. Each reader
/// reports a false return with its own message.
bool open_input(std::ifstream& in, const std::string& path);

}  // namespace cosched
