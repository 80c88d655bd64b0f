#include "sim/io.hpp"

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "util/check.hpp"

namespace dtm {

namespace {

constexpr const char* kInstanceHeader = "dtm-instance v1";
constexpr const char* kScheduleHeader = "dtm-schedule v1";

[[noreturn]] void parse_fail(int line, const std::string& what) {
  DTM_CHECK(false, "parse error at line " << line << ": " << what);
  std::abort();  // unreachable; DTM_CHECK throws
}

/// Rejects a negative value of an id, node, time or created field: the
/// engine and store treat negative ids as sentinels and index by node.
void require_non_negative(int line, std::int64_t v, const char* field) {
  if (v < 0)
    parse_fail(line, "negative " + std::string(field) + " " +
                         std::to_string(v));
}

std::ifstream open_in(const std::string& path) {
  std::ifstream f(path);
  DTM_REQUIRE(f.good(), "cannot open " << path << " for reading");
  return f;
}

std::ofstream open_out(const std::string& path) {
  std::ofstream f(path);
  DTM_REQUIRE(f.good(), "cannot open " << path << " for writing");
  return f;
}

}  // namespace

void save_instance(std::ostream& os, const Instance& inst) {
  os << kInstanceHeader << "\n";
  for (const auto& o : inst.origins)
    os << "object " << o.id << " " << o.node << " " << o.created << "\n";
  for (const auto& t : inst.txns) {
    os << "txn " << t.id << " " << t.node << " " << t.gen_time;
    for (const auto& a : t.accesses)
      os << " " << a.obj << ":"
         << (a.mode == AccessMode::kWrite ? 'w' : 'r');
    os << "\n";
  }
}

Instance load_instance(std::istream& is) {
  Instance inst;
  std::set<ObjId> objects;
  std::set<TxnId> txns;
  std::map<ObjId, int> first_use;  ///< object -> line of its first access
  std::string line;
  int lineno = 0;
  if (!std::getline(is, line) || line != kInstanceHeader)
    parse_fail(1, "expected header '" + std::string(kInstanceHeader) + "'");
  ++lineno;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "object") {
      ObjectOrigin o;
      if (!(ls >> o.id >> o.node >> o.created))
        parse_fail(lineno, "bad object record");
      require_non_negative(lineno, o.id, "object id");
      require_non_negative(lineno, o.node, "node");
      require_non_negative(lineno, o.created, "created");
      if (!objects.insert(o.id).second)
        parse_fail(lineno, "duplicate object " + std::to_string(o.id));
      inst.origins.push_back(o);
    } else if (kind == "txn") {
      Transaction t;
      if (!(ls >> t.id >> t.node >> t.gen_time))
        parse_fail(lineno, "bad txn record");
      require_non_negative(lineno, t.id, "txn id");
      require_non_negative(lineno, t.node, "node");
      require_non_negative(lineno, t.gen_time, "time");
      if (!txns.insert(t.id).second)
        parse_fail(lineno, "duplicate txn " + std::to_string(t.id));
      std::string acc;
      while (ls >> acc) {
        const auto colon = acc.find(':');
        if (colon == std::string::npos || colon + 2 != acc.size() ||
            (acc[colon + 1] != 'r' && acc[colon + 1] != 'w'))
          parse_fail(lineno, "bad access '" + acc + "'");
        ObjectAccess a;
        try {
          a.obj = static_cast<ObjId>(std::stol(acc.substr(0, colon)));
        } catch (const std::exception&) {
          parse_fail(lineno, "bad object id in '" + acc + "'");
        }
        require_non_negative(lineno, a.obj, "object id");
        a.mode =
            acc[colon + 1] == 'w' ? AccessMode::kWrite : AccessMode::kRead;
        first_use.emplace(a.obj, lineno);
        t.accesses.push_back(a);
      }
      if (t.accesses.empty()) parse_fail(lineno, "txn with no accesses");
      inst.txns.push_back(std::move(t));
    } else {
      parse_fail(lineno, "unknown record '" + kind + "'");
    }
  }
  // Objects may be declared anywhere in the file, so undeclared accesses
  // are reported once it is read — at the line of the first such access.
  int bad_line = 0;
  ObjId bad = kNoObj;
  for (const auto& [o, at] : first_use) {
    if (objects.count(o) == 0 && (bad_line == 0 || at < bad_line)) {
      bad_line = at;
      bad = o;
    }
  }
  if (bad_line != 0)
    parse_fail(bad_line, "access to undeclared object " + std::to_string(bad));
  return inst;
}

void save_schedule(std::ostream& os,
                   const std::vector<ScheduledTxn>& scheduled) {
  os << kScheduleHeader << "\n";
  for (const auto& s : scheduled)
    os << "commit " << s.txn.id << " " << s.exec << "\n";
}

std::vector<ScheduledTxn> load_schedule(std::istream& is,
                                        const Instance& inst) {
  std::string line;
  int lineno = 0;
  if (!std::getline(is, line) || line != kScheduleHeader)
    parse_fail(1, "expected header '" + std::string(kScheduleHeader) + "'");
  ++lineno;
  std::map<TxnId, Time> exec;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    TxnId id;
    Time t;
    if (!(ls >> kind >> id >> t) || kind != "commit")
      parse_fail(lineno, "bad commit record");
    if (!exec.emplace(id, t).second)
      parse_fail(lineno, "duplicate commit for txn " + std::to_string(id));
  }
  std::vector<ScheduledTxn> out;
  out.reserve(inst.txns.size());
  std::size_t matched = 0;
  for (const auto& txn : inst.txns) {
    const auto it = exec.find(txn.id);
    out.push_back({txn, it == exec.end() ? kNoTime : it->second});
    if (it != exec.end()) ++matched;
  }
  DTM_CHECK(matched == exec.size(),
            "schedule names " << exec.size() - matched
                              << " transactions absent from the instance");
  return out;
}

void save_instance_file(const std::string& path, const Instance& inst) {
  auto f = open_out(path);
  save_instance(f, inst);
}

Instance load_instance_file(const std::string& path) {
  auto f = open_in(path);
  return load_instance(f);
}

void save_schedule_file(const std::string& path,
                        const std::vector<ScheduledTxn>& scheduled) {
  auto f = open_out(path);
  save_schedule(f, scheduled);
}

std::vector<ScheduledTxn> load_schedule_file(const std::string& path,
                                             const Instance& inst) {
  auto f = open_in(path);
  return load_schedule(f, inst);
}

}  // namespace dtm
