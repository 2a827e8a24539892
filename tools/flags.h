// The command-line parser the spauth tools share. Each tool declares its
// flags up front; anything else is an error:
//
//   - an unknown flag, a flag without its value, a stray positional
//     argument, or a non-integer value for an integer flag prints the
//     usage text to stderr and exits 2;
//   - --help (or -h) prints the usage text to stdout and exits 0, before
//     the tool does any work.
//
// Every flag takes exactly one value (`--name value`). A flag given twice
// keeps its last value, except a repeatable flag, which keeps them all.
#ifndef SPAUTH_TOOLS_FLAGS_H_
#define SPAUTH_TOOLS_FLAGS_H_

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace spauth::tools {

struct FlagSpec {
  const char* name;  // without the leading "--"
  const char* help;
  bool repeatable = false;
};

class Flags {
 public:
  /// Parses argv[first, argc) against `specs`; `usage` heads the message
  /// printed on --help and on every parse error. With `positional` true,
  /// one bare argument is accepted (see positional()).
  static Flags Parse(int argc, char** argv, int first, std::string usage,
                     std::initializer_list<FlagSpec> specs,
                     bool positional = false) {
    Flags flags;
    flags.usage_ = std::move(usage);
    for (const FlagSpec& spec : specs) {
      flags.usage_ += std::string("\n  --") + spec.name + "  " + spec.help;
      flags.specs_[spec.name] = spec;
    }
    for (int i = first; i < argc; ++i) {
      const std::string token = argv[i];
      if (token == "--help" || token == "-h") {
        std::printf("%s\n", flags.usage_.c_str());
        std::exit(0);
      }
      if (token.rfind("--", 0) != 0) {
        if (!positional || !flags.positional_.empty()) {
          flags.Fail("unexpected argument '" + token + "'");
        }
        flags.positional_ = token;
        continue;
      }
      const std::string name = token.substr(2);
      const auto spec = flags.specs_.find(name);
      if (spec == flags.specs_.end()) {
        flags.Fail("unknown flag '" + token + "'");
      }
      if (i + 1 >= argc) {
        flags.Fail("flag '" + token + "' needs a value");
      }
      std::vector<std::string>& values = flags.values_[name];
      if (!spec->second.repeatable) {
        values.clear();
      }
      values.emplace_back(argv[++i]);
    }
    return flags;
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  std::string Get(const std::string& name, const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second.back();
  }

  long GetInt(const std::string& name, long fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      return fallback;
    }
    const std::string& text = it->second.back();
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno != 0) {
      Fail("flag '--" + name + "' needs an integer, got '" + text + "'");
    }
    return value;
  }

  /// Every value of a repeatable flag, in command-line order.
  std::vector<std::string> GetAll(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }

  const std::string& positional() const { return positional_; }

  /// Prints `message` and the usage text to stderr and exits 2.
  [[noreturn]] void Fail(const std::string& message) const {
    std::fprintf(stderr, "%s\n%s\n", message.c_str(), usage_.c_str());
    std::exit(2);
  }

 private:
  std::string usage_;
  std::map<std::string, FlagSpec> specs_;
  std::map<std::string, std::vector<std::string>> values_;
  std::string positional_;
};

}  // namespace spauth::tools

#endif  // SPAUTH_TOOLS_FLAGS_H_
