/**
 * @file
 * The command-line parser every tool in tools/ shares.
 *
 * A tool declares each flag once — name, value placeholder, help line
 * and destination — and Cli::parseOrExit() does the rest. Parsing is
 * strict, so a mistyped value can never turn into a silent default:
 *
 *  - unsigned integers are decimal digits or 0x-prefixed hex, with no
 *    sign, no surrounding space and no trailing characters, and must
 *    fit the destination and its declared range (a --seed takes the
 *    full 64-bit range in either form);
 *  - reals are plain decimal forms that must be finite and in range;
 *  - relative tolerances are a real or a percentage ("0.05" or "5%");
 *  - lists are comma-separated with no empty elements, and every
 *    element must parse (machine slugs must name a known machine);
 *  - a flag that needs a value takes the next word verbatim, so
 *    "--from -2" works; only the end of the arguments is a missing
 *    value. A repeated flag overrides, except where it appends.
 *
 * Exit status convention shared by every tool: 0 success, 1 a gate or
 * regression fired, 2 a usage or I/O error. Usage errors print one
 * line naming the tool, the flag and the offending value.
 *
 * The module also owns the plumbing the tools would otherwise each
 * copy: --jobs (0 = all cores), --help, writing an output file and
 * loading a JSON input file. The reference-path switches are
 * environment variables (AOSD_NO_PREDECODE, AOSD_NO_BATCH), read by
 * the library itself, so every tool honours them without a flag.
 */

#ifndef AOSD_SIM_CLI_HH
#define AOSD_SIM_CLI_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/machine_desc.hh"

namespace aosd
{

class Json;

/** Exit status of a usage or I/O error. */
inline constexpr int exitError = 2;

/** One tool's flag table and its strict parser. */
class Cli
{
  public:
    /** Stores the value word; returns "" or why the word is invalid. */
    using Setter = std::function<std::string(const std::string &)>;

    /** `tool` names the program in every message; `synopsis` follows
     *  it on the usage line; `epilogue` is printed after the flags. */
    Cli(std::string tool, std::string synopsis = "[options]",
        std::string epilogue = "");

    /** A flag without a value. */
    void flag(const std::string &name, bool &dst,
              const std::string &help);
    void flag(const std::string &name, std::function<void()> action,
              const std::string &help);

    /** A flag with a value, stored by `set`. */
    void option(const std::string &name, const std::string &metavar,
                Setter set, const std::string &help);
    void option(const std::string &name, const std::string &metavar,
                std::string &dst, const std::string &help);
    /** Repeatable: each occurrence appends one value. */
    void option(const std::string &name, const std::string &metavar,
                std::vector<std::string> &dst, const std::string &help);
    /** Unsigned integer in [min, max] (and within T). */
    template <class T>
    void
    option(const std::string &name, const std::string &metavar, T &dst,
           const std::string &help, std::uint64_t min = 0,
           std::uint64_t max = std::numeric_limits<T>::max())
        requires std::is_unsigned_v<T> && (!std::is_same_v<T, bool>)
    {
        option(name, metavar,
               [&dst, min, max](const std::string &v) {
                   std::uint64_t n = 0;
                   std::string why = parseUnsigned(v, min, max, n);
                   if (why.empty())
                       dst = static_cast<T>(n);
                   return why;
               },
               help);
    }
    /** Finite real in [min, max]. */
    void option(const std::string &name, const std::string &metavar,
                double &dst, const std::string &help, double min,
                double max);
    /** Relative tolerance, "0.05" or "5%". */
    void tolerance(const std::string &name, double &dst,
                   const std::string &help);
    /** Comma-separated machine slugs. */
    void option(const std::string &name, const std::string &metavar,
                std::vector<MachineId> &dst, const std::string &help);

    /** One of a fixed set of words, each naming a value of `dst`. */
    template <class E>
    void
    choice(const std::string &name, E &dst,
           std::initializer_list<std::pair<const char *, E>> choices,
           const std::string &help)
    {
        std::vector<std::pair<std::string, E>> table(choices.begin(),
                                                     choices.end());
        std::string metavar;
        for (const auto &c : table)
            metavar += (metavar.empty() ? "" : "|") + c.first;
        option(name, metavar,
               [&dst, table, metavar](const std::string &v) {
                   for (const auto &c : table) {
                       if (c.first == v) {
                           dst = c.second;
                           return std::string();
                       }
                   }
                   return "expected one of " + metavar;
               },
               help);
    }

    /** A flag whose value is optional ("--json [path]"): the next word
     *  is its value unless it starts with '-'. Sets `given`; `dst`
     *  stays empty when no value follows. */
    void optionalValue(const std::string &name,
                       const std::string &metavar, bool &given,
                       std::string &dst, const std::string &help);

    /** Accept bare words (in order, anywhere among the flags); without
     *  this call a bare word is a usage error. */
    void positionals(std::vector<std::string> &dst);

    /** --jobs N: worker threads; `dst` starts at all cores, and 0
     *  also means all cores. */
    void jobs(unsigned &dst);

    /** Parse `args` (without the program name). Returns false and
     *  sets `error` on a usage error; --help stops parsing and sets
     *  helpRequested(). */
    bool parse(const std::vector<std::string> &args,
               std::string *error);
    bool helpRequested() const { return help; }
    std::string usage() const;

    /** parse() argv: on --help print usage() and exit 0; on a usage
     *  error exit via fail(). */
    void parseOrExit(int argc, char **argv);

    /** Print "<tool>: <message>" and a pointer to --help; exit 2. */
    [[noreturn]] void fail(const std::string &message) const;

    /** Value parsers behind option(); each returns "" or why `text`
     *  is invalid, and writes `out` only on success. */
    static std::string parseUnsigned(const std::string &text,
                                     std::uint64_t min,
                                     std::uint64_t max,
                                     std::uint64_t &out);
    static std::string parseReal(const std::string &text, double min,
                                 double max, double &out);
    /** "5%" -> 0.05, "0.05" -> 0.05; non-negative. */
    static std::string parseTolerance(const std::string &text,
                                      double &out);
    /** Split a comma-separated list; an empty element is an error. */
    static std::string splitList(const std::string &text,
                                 std::vector<std::string> &out);
    /** "KEY=VALUE" with both sides non-empty. */
    static std::string splitKeyValue(const std::string &text,
                                     std::string &key,
                                     std::string &value);

  private:
    struct Flag
    {
        std::string name;
        std::string metavar; ///< empty for a flag without a value
        std::string help;
        bool valueOptional = false;
        std::function<void()> present;
        Setter set;
    };

    std::string tool;
    std::string synopsis;
    std::string epilogue;
    std::vector<Flag> flags;
    std::vector<std::string> *bare = nullptr;
    bool help = false;
};

/** Write `content` to `path`; on failure say so on stderr. */
bool writeFile(const std::string &path, const std::string &content);

/** Write a tool's output document: to stdout when `path` is empty,
 *  else to `path` with "<what> -> <path>" on stderr. */
bool writeOutput(const std::string &path, const std::string &content,
                 const char *what);

/** Read and parse the JSON document at `path`; on failure say why on
 *  stderr, naming the path. */
bool loadJsonFile(const std::string &path, Json &out);

/** An optional input document: an empty `path` loads nothing;
 *  otherwise loadJsonFile() into `doc` and point `slot` at it. */
bool loadOptionalJson(const std::string &path, Json &doc,
                      const Json *&slot);

} // namespace aosd

#endif // AOSD_SIM_CLI_HH
