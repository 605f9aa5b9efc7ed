#include "sim/cli.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "arch/machines.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/parallel/parallel_runner.hh"

namespace aosd
{

namespace
{

/** More workers than this is a typo, not a machine. */
constexpr std::uint64_t maxJobs = 1024;

constexpr std::size_t helpColumn = 24;

} // namespace

Cli::Cli(std::string tool, std::string synopsis, std::string epilogue)
    : tool(std::move(tool)), synopsis(std::move(synopsis)),
      epilogue(std::move(epilogue))
{}

void
Cli::flag(const std::string &name, bool &dst, const std::string &help)
{
    flag(name, [&dst] { dst = true; }, help);
}

void
Cli::flag(const std::string &name, std::function<void()> action,
          const std::string &help)
{
    flags.push_back({name, "", help, false, std::move(action), nullptr});
}

void
Cli::option(const std::string &name, const std::string &metavar,
            Setter set, const std::string &help)
{
    flags.push_back({name, metavar, help, false, nullptr, std::move(set)});
}

void
Cli::option(const std::string &name, const std::string &metavar,
            std::string &dst, const std::string &help)
{
    option(name, metavar,
           [&dst](const std::string &v) {
               dst = v;
               return std::string();
           },
           help);
}

void
Cli::option(const std::string &name, const std::string &metavar,
            std::vector<std::string> &dst, const std::string &help)
{
    option(name, metavar,
           [&dst](const std::string &v) {
               dst.push_back(v);
               return std::string();
           },
           help);
}

void
Cli::option(const std::string &name, const std::string &metavar,
            double &dst, const std::string &help, double min,
            double max)
{
    option(name, metavar,
           [&dst, min, max](const std::string &v) {
               return parseReal(v, min, max, dst);
           },
           help);
}

void
Cli::tolerance(const std::string &name, double &dst,
               const std::string &help)
{
    option(name, "REL",
           [&dst](const std::string &v) {
               return parseTolerance(v, dst);
           },
           help);
}

void
Cli::option(const std::string &name, const std::string &metavar,
            std::vector<MachineId> &dst, const std::string &help)
{
    option(name, metavar,
           [&dst](const std::string &v) {
               std::vector<std::string> slugs;
               std::string why = splitList(v, slugs);
               if (!why.empty())
                   return why;
               std::vector<MachineDesc> known = allMachines();
               std::vector<MachineId> ids;
               for (const std::string &slug : slugs) {
                   auto it = std::find_if(
                       known.begin(), known.end(),
                       [&](const MachineDesc &m) {
                           return slug == machineSlug(m.id);
                       });
                   if (it == known.end()) {
                       std::string names;
                       for (const MachineDesc &m : known)
                           names += std::string(names.empty() ? ""
                                                              : ", ") +
                                    machineSlug(m.id);
                       return "unknown machine '" + slug +
                              "' (known: " + names + ")";
                   }
                   ids.push_back(it->id);
               }
               dst = std::move(ids);
               return std::string();
           },
           help);
}

void
Cli::optionalValue(const std::string &name, const std::string &metavar,
                   bool &given, std::string &dst,
                   const std::string &help)
{
    flags.push_back({name, "[" + metavar + "]", help, true,
                     [&given] { given = true; },
                     [&dst](const std::string &v) {
                         dst = v;
                         return std::string();
                     }});
}

void
Cli::positionals(std::vector<std::string> &dst)
{
    bare = &dst;
}

void
Cli::jobs(unsigned &dst)
{
    dst = ParallelRunner::defaultJobs();
    option("--jobs", "N",
           [&dst](const std::string &v) {
               std::uint64_t n = 0;
               std::string why = parseUnsigned(v, 0, maxJobs, n);
               if (why.empty())
                   dst = n == 0 ? ParallelRunner::defaultJobs()
                                : static_cast<unsigned>(n);
               return why;
           },
           "worker threads (default and 0: all cores; 1 = serial;\n"
           "output is identical either way)");
}

bool
Cli::parse(const std::vector<std::string> &args, std::string *error)
{
    auto bad = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return false;
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--help" || arg == "-h") {
            help = true;
            return true;
        }
        if (arg.size() < 2 || arg[0] != '-') {
            if (!bare)
                return bad("unexpected argument '" + arg + "'");
            bare->push_back(arg);
            continue;
        }
        auto f = std::find_if(flags.begin(), flags.end(),
                              [&](const Flag &fl) {
                                  return fl.name == arg;
                              });
        if (f == flags.end())
            return bad("unknown flag '" + arg + "'");
        if (f->present)
            f->present();
        if (!f->set)
            continue;
        if (f->valueOptional &&
            (i + 1 >= args.size() || args[i + 1][0] == '-'))
            continue;
        if (i + 1 >= args.size())
            return bad(arg + " needs a value (" + f->metavar + ")");
        const std::string &value = args[++i];
        std::string why = f->set(value);
        if (!why.empty())
            return bad("invalid value '" + value + "' for " + arg +
                       ": " + why);
    }
    return true;
}

std::string
Cli::usage() const
{
    std::string out = "usage: " + tool + " " + synopsis + "\n";
    auto line = [&out](std::string head, const std::string &help) {
        head = "  " + head;
        if (head.size() + 1 > helpColumn)
            head += "\n" + std::string(helpColumn, ' ');
        else
            head.resize(helpColumn, ' ');
        out += head;
        for (char c : help) {
            out += c;
            if (c == '\n')
                out.append(helpColumn, ' ');
        }
        out += '\n';
    };
    for (const Flag &f : flags)
        line(f.metavar.empty() ? f.name : f.name + " " + f.metavar,
             f.help);
    line("-h, --help", "print this help");
    return out + epilogue;
}

void
Cli::parseOrExit(int argc, char **argv)
{
    std::string error;
    if (!parse(std::vector<std::string>(argv + 1, argv + argc),
               &error))
        fail(error);
    if (help) {
        std::fputs(usage().c_str(), stdout);
        std::exit(0);
    }
}

void
Cli::fail(const std::string &message) const
{
    std::fprintf(stderr, "%s: %s\nrun '%s --help' for usage\n",
                 tool.c_str(), message.c_str(), tool.c_str());
    std::exit(exitError);
}

std::string
Cli::parseUnsigned(const std::string &text, std::uint64_t min,
                   std::uint64_t max, std::uint64_t &out)
{
    // from_chars takes no sign, space or prefix: only "0x" is peeled.
    const char *first = text.data();
    const char *last = first + text.size();
    int base = 10;
    if (text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X')) {
        first += 2;
        base = 16;
    }
    std::uint64_t v = 0;
    auto [end, ec] = std::from_chars(first, last, v, base);
    if (ec == std::errc::result_out_of_range)
        return "out of range (more than 64 bits)";
    if (ec != std::errc() || end != last)
        return "expected an unsigned integer (decimal or 0x hex)";
    if (v < min || v > max)
        return csprintf("out of range [%llu, %llu]",
                        static_cast<unsigned long long>(min),
                        static_cast<unsigned long long>(max));
    out = v;
    return "";
}

std::string
Cli::parseReal(const std::string &text, double min, double max,
               double &out)
{
    const char *last = text.data() + text.size();
    double v = 0.0;
    auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec == std::errc::result_out_of_range)
        return "out of range for a double";
    if (ec != std::errc() || end != last || !std::isfinite(v))
        return "expected a finite number";
    if (v < min || v > max)
        return csprintf("out of range [%g, %g]", min, max);
    out = v;
    return "";
}

std::string
Cli::parseTolerance(const std::string &text, double &out)
{
    const double inf = std::numeric_limits<double>::max();
    if (text.empty() || text.back() != '%')
        return parseReal(text, 0.0, inf, out);
    double pct = 0.0;
    std::string why =
        parseReal(text.substr(0, text.size() - 1), 0.0, inf, pct);
    if (why.empty())
        out = pct / 100.0;
    return why;
}

std::string
Cli::splitList(const std::string &text, std::vector<std::string> &out)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        std::size_t comma = text.find(',', start);
        std::string part = text.substr(start, comma - start);
        if (part.empty())
            return "empty list element";
        parts.push_back(std::move(part));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    out = std::move(parts);
    return "";
}

std::string
Cli::splitKeyValue(const std::string &text, std::string &key,
                   std::string &value)
{
    std::size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == text.size())
        return "expected KEY=VALUE";
    key = text.substr(0, eq);
    value = text.substr(eq + 1);
    return "";
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out || !(out << content)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    return true;
}

bool
writeOutput(const std::string &path, const std::string &content,
            const char *what)
{
    if (path.empty()) {
        std::fputs(content.c_str(), stdout);
        return true;
    }
    if (!writeFile(path, content))
        return false;
    std::fprintf(stderr, "%s -> %s\n", what, path.c_str());
    return true;
}

bool
loadJsonFile(const std::string &path, Json &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    out = Json::parse(buf.str(), &error);
    if (!error.empty()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
        return false;
    }
    return true;
}

bool
loadOptionalJson(const std::string &path, Json &doc, const Json *&slot)
{
    if (path.empty())
        return true;
    slot = &doc;
    return loadJsonFile(path, doc);
}

} // namespace aosd
