#include "lint/global_rules.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "lint/source.h"

namespace lint {

namespace {

class GlobalPass {
 public:
  GlobalPass(const std::vector<FileAnalysis>& files, const LayerGraph* layers,
             const std::string& layers_path, const ConcurrencyConfig& conc)
      : files_(files), layers_(layers), layers_path_(layers_path),
        conc_(conc) {}

  std::vector<Diagnostic> Run() {
    BuildClosures();
    CheckLayering();
    CheckIncludeCycles();
    CheckDiscardedStatus();
    CheckLocks();
    CheckLoopBlocking();
    CheckUnorderedOutput();
    std::sort(diags_.begin(), diags_.end());
    diags_.erase(std::unique(diags_.begin(), diags_.end(),
                             [](const Diagnostic& a, const Diagnostic& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.col == b.col && a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 diags_.end());
    return std::move(diags_);
  }

 private:
  void Report(size_t fi, size_t line, size_t col, const std::string& rule,
              const std::string& message) {
    if (line >= 1 && Waived(files_[fi], line, rule)) return;
    diags_.push_back({files_[fi].path, line, col, rule, message});
  }

  // ---------------------------------------------------------- closures
  //
  // The include closure of a file — itself plus every repo file reachable
  // through quoted includes — is the set of translation units whose
  // declarations are visible to it. All cross-TU resolution (guarded
  // members, EXEA_REQUIRES contracts, call targets) is scoped to it.

  // Resolves one quoted include target to a file index, or npos.
  size_t ResolveInclude(size_t fi, const std::string& target) const {
    std::string key = target;
    if (target.find('/') == std::string::npos &&
        !files_[fi].src_rel.empty()) {
      size_t dir = files_[fi].src_rel.rfind('/');
      key = dir == std::string::npos
                ? target
                : files_[fi].src_rel.substr(0, dir + 1) + target;
    }
    auto it = key_to_file_.find(key);
    return it == key_to_file_.end() ? std::string::npos : it->second;
  }

  void BuildClosures() {
    for (size_t fi = 0; fi < files_.size(); ++fi) {
      if (!files_[fi].src_rel.empty()) key_to_file_[files_[fi].src_rel] = fi;
    }
    closures_.resize(files_.size());
    for (size_t fi = 0; fi < files_.size(); ++fi) {
      std::set<size_t> seen{fi};
      std::deque<size_t> queue{fi};
      while (!queue.empty()) {
        size_t cur = queue.front();
        queue.pop_front();
        for (const IncludeFact& inc : files_[cur].summary.includes) {
          size_t to = ResolveInclude(cur, inc.target);
          if (to != std::string::npos && seen.insert(to).second) {
            queue.push_back(to);
          }
        }
      }
      closures_[fi].assign(seen.begin(), seen.end());
    }
  }

  // ---------------------------------------------------------- layering

  void CheckLayering() {
    if (layers_ == nullptr) return;
    // Module-level pass: every quoted include whose first path segment is a
    // declared module must point at the includer's own module or strictly
    // below it.
    for (size_t fi = 0; fi < files_.size(); ++fi) {
      const FileAnalysis& file = files_[fi];
      if (file.in_src && file.module.empty()) continue;  // src-root file
      if (file.in_src && layers_->modules.count(file.module) == 0) {
        Report(fi, 1, 1, "layering",
               "module '" + file.module + "' is not declared in " +
                   layers_path_);
        continue;
      }
      if (file.module.empty()) continue;  // not src/tools/bench
      auto below_it = layers_->below.find(file.module);
      const std::set<std::string>* below =
          below_it == layers_->below.end() ? nullptr : &below_it->second;
      for (const IncludeFact& inc : file.summary.includes) {
        size_t slash = inc.target.find('/');
        if (slash == std::string::npos) continue;  // relative include
        std::string target_module = inc.target.substr(0, slash);
        if (layers_->modules.count(target_module) == 0) continue;  // gtest …
        if (target_module == file.module) continue;
        if (below != nullptr && below->count(target_module) > 0) continue;
        Report(fi, inc.line, inc.col, "layering",
               "module '" + file.module + "' may not include \"" +
                   inc.target + "\": '" + target_module +
                   "' is not below '" + file.module + "' in " + layers_path_);
      }
    }
  }

  void CheckIncludeCycles() {
    if (layers_ == nullptr) return;
    // File-level pass: cycles in the quoted-include graph. Keys are
    // src-relative paths (the spelling used in #include "...").
    struct Edge {
      size_t to;
      size_t line;  // include line in the source file, 1-based
    };
    std::vector<std::vector<Edge>> adj(files_.size());
    for (size_t fi = 0; fi < files_.size(); ++fi) {
      for (const IncludeFact& inc : files_[fi].summary.includes) {
        size_t to = ResolveInclude(fi, inc.target);
        if (to != std::string::npos) adj[fi].push_back({to, inc.line});
      }
    }
    // DFS with an explicit stack; a gray-node hit is a cycle, reported once
    // per distinct cycle (canonicalized by its sorted member set).
    std::vector<int> color(files_.size(), 0);
    std::set<std::string> reported;
    for (size_t start = 0; start < files_.size(); ++start) {
      if (color[start] != 0) continue;
      struct Frame {
        size_t node;
        size_t next_edge = 0;
      };
      std::vector<Frame> frames{{start}};
      color[start] = 1;
      while (!frames.empty()) {
        Frame& top = frames.back();
        if (top.next_edge >= adj[top.node].size()) {
          color[top.node] = 2;
          frames.pop_back();
          continue;
        }
        const Edge& edge = adj[top.node][top.next_edge++];
        if (color[edge.to] == 1) {
          // Reconstruct the chain from edge.to down to top.node.
          std::vector<size_t> chain;
          bool in_cycle = false;
          for (const Frame& f : frames) {
            if (f.node == edge.to) in_cycle = true;
            if (in_cycle) chain.push_back(f.node);
          }
          std::vector<std::string> keys;
          keys.reserve(chain.size());
          for (size_t n : chain) keys.push_back(files_[n].src_rel);
          std::vector<std::string> canon = keys;
          std::sort(canon.begin(), canon.end());
          std::string canon_key;
          for (const std::string& k : canon) canon_key += k + "|";
          if (reported.insert(canon_key).second) {
            std::string pretty;
            for (const std::string& k : keys) pretty += k + " -> ";
            pretty += files_[edge.to].src_rel;
            Report(top.node, edge.line, 1, "include-cycle",
                   "include cycle: " + pretty);
          }
          continue;
        }
        if (color[edge.to] == 0) {
          color[edge.to] = 1;
          frames.push_back({edge.to});
        }
      }
    }
  }

  // ---------------------------------------------------- discarded-status

  void CheckDiscardedStatus() {
    std::set<std::string> status_returning;
    for (const FileAnalysis& file : files_) {
      status_returning.insert(file.summary.status_fns.begin(),
                              file.summary.status_fns.end());
    }
    for (size_t fi = 0; fi < files_.size(); ++fi) {
      for (const DiscardCandidate& d : files_[fi].summary.discards) {
        if (status_returning.count(d.callee) == 0) continue;
        Report(fi, d.line, d.col, "discarded-status",
               "result of Status-returning call '" + d.callee +
                   "' is discarded; check it, EXEA_RETURN_IF_ERROR it, or "
                   "EXEA_CHECK_OK it");
      }
    }
  }

  // -------------------------------------------------------- lock rules
  //
  // lock-held: a reference to an EXEA_GUARDED_BY member, inside a method,
  // with no enclosing lock of its mutex and no EXEA_REQUIRES contract on
  // the enclosing function. guarded-by-escape: the same reference made
  // from a free (non-member) function — the member leaked out of its
  // class entirely. requires-held: a call to an EXEA_REQUIRES method made
  // without the mutex lexically held and without the caller carrying the
  // same contract. All three resolve annotations across the include
  // closure, so a .cc file sees the contracts of every header it includes.

  void CheckLocks() {
    for (size_t fi = 0; fi < files_.size(); ++fi) {
      const FileAnalysis& file = files_[fi];
      // Annotations visible to this file.
      std::set<std::pair<std::string, std::string>> members;  // name, mutex
      std::map<std::string, std::set<std::string>> required;  // fn → mutexes
      for (size_t ci : closures_[fi]) {
        for (const GuardedMemberFact& m : files_[ci].summary.guarded) {
          members.insert({m.name, m.mutex});
        }
        for (const RequiredMethodFact& m : files_[ci].summary.required) {
          required[m.name].insert(m.mutex);
        }
        for (const FnDecl& d : files_[ci].summary.decls) {
          if (!d.requires_mutex.empty()) {
            required[d.name].insert(d.requires_mutex);
          }
        }
      }
      if (members.empty() && required.empty()) continue;

      // Does the enclosing function satisfy a hold of `mutex` by contract?
      auto contract_holds = [&](int fn, const std::string& mutex) {
        if (fn < 0) return false;
        const FnDecl& d = file.summary.decls[fn];
        if (d.requires_mutex == mutex) return true;
        auto it = required.find(d.name);
        return it != required.end() && it->second.count(mutex) > 0;
      };

      std::set<std::pair<size_t, std::string>> seen_refs;  // line, member
      for (const MemberRef& r : file.summary.refs) {
        for (const auto& [name, mutex] : members) {
          if (name != r.name) continue;
          if (r.held.count(mutex) > 0) continue;
          if (contract_holds(r.fn, mutex)) continue;
          if (!seen_refs.insert({r.line, name}).second) continue;
          bool free_fn =
              r.fn >= 0 && !file.summary.decls[r.fn].is_method;
          if (free_fn) {
            Report(fi, r.line, r.col, "guarded-by-escape",
                   "'" + name + "' is EXEA_GUARDED_BY(" + mutex +
                       ") but is touched from free function '" +
                       file.summary.decls[r.fn].name +
                       "', which neither holds a lock of it nor carries "
                       "EXEA_REQUIRES(" + mutex + ")");
          } else {
            Report(fi, r.line, r.col, "lock-held",
                   "'" + name + "' is EXEA_GUARDED_BY(" + mutex +
                       ") but no enclosing scope holds that mutex (take a "
                       "lock_guard, or mark the method EXEA_REQUIRES)");
          }
        }
      }

      std::set<std::pair<size_t, std::string>> seen_calls;  // line, callee
      for (const CallSite& c : file.summary.calls) {
        auto it = required.find(c.name);
        if (it == required.end()) continue;
        for (const std::string& mutex : it->second) {
          if (c.held.count(mutex) > 0) continue;
          if (contract_holds(c.fn, mutex)) continue;
          if (!seen_calls.insert({c.line, c.name}).second) continue;
          Report(fi, c.line, c.col, "requires-held",
                 "call to '" + c.name + "' requires mutex '" + mutex +
                     "' (EXEA_REQUIRES) but the caller holds no lock of it "
                     "and carries no matching EXEA_REQUIRES contract");
        }
      }
    }
  }

  // ----------------------------------------------------- loop-blocking
  //
  // BFS over the cross-TU call graph from the configured event-loop
  // entries. Any function transitively reachable from an entry may not
  // call a name in the blocking set; the `safe` set names vetted
  // nonblocking wrappers whose bodies are not descended into.

  // True when `qname` names the same function as the (possibly shorter)
  // qualified suffix `pat`: equal, or equal after "::" on a segment
  // boundary.
  static bool QnameMatches(const std::string& qname, const std::string& pat) {
    std::string p = pat;
    if (p.rfind("::", 0) == 0) p = p.substr(2);
    if (qname == p) return true;
    return HasSuffix(qname, "::" + p);
  }

  void CheckLoopBlocking() {
    if (conc_.entries.empty()) return;
    // Definition index: base name → every (file, decl) definition.
    std::map<std::string, std::vector<std::pair<size_t, size_t>>> defs;
    for (size_t fi = 0; fi < files_.size(); ++fi) {
      const auto& decls = files_[fi].summary.decls;
      for (size_t di = 0; di < decls.size(); ++di) {
        if (decls[di].is_definition) defs[decls[di].name].push_back({fi, di});
      }
    }
    // Per-file closure membership for visibility tests.
    std::vector<std::set<size_t>> closed(files_.size());
    for (size_t fi = 0; fi < files_.size(); ++fi) {
      closed[fi].insert(closures_[fi].begin(), closures_[fi].end());
    }
    // A call in file `fi` resolves to a definition (dfi, ddi) when the
    // definition itself — or a declaration with the same qualified name —
    // is visible in fi's include closure, and the written qualification
    // is a suffix of the definition's qualified name.
    auto resolve = [&](size_t fi, const CallSite& c,
                       std::vector<std::pair<size_t, size_t>>* out) {
      auto it = defs.find(c.name);
      if (it == defs.end()) return;
      for (const auto& [dfi, ddi] : it->second) {
        const FnDecl& def = files_[dfi].summary.decls[ddi];
        if (c.qual != c.name && !QnameMatches(def.qname, c.qual)) continue;
        bool visible = closed[fi].count(dfi) > 0;
        if (!visible) {
          for (size_t ci : closures_[fi]) {
            for (const FnDecl& d : files_[ci].summary.decls) {
              if (!d.is_definition && d.qname == def.qname) {
                visible = true;
                break;
              }
            }
            if (visible) break;
          }
        }
        if (visible) out->push_back({dfi, ddi});
      }
    };

    struct Node {
      size_t fi, di;
      std::string chain;  // "Entry -> A -> B"
    };
    std::set<std::pair<size_t, size_t>> visited;
    std::deque<Node> queue;
    for (const std::string& entry : conc_.entries) {
      for (size_t fi = 0; fi < files_.size(); ++fi) {
        const auto& decls = files_[fi].summary.decls;
        for (size_t di = 0; di < decls.size(); ++di) {
          if (!decls[di].is_definition) continue;
          if (!QnameMatches(decls[di].qname, entry)) continue;
          if (visited.insert({fi, di}).second) {
            queue.push_back({fi, di, decls[di].qname});
          }
        }
      }
    }
    while (!queue.empty()) {
      Node node = queue.front();
      queue.pop_front();
      const FileAnalysis& file = files_[node.fi];
      for (const CallSite& c : file.summary.calls) {
        if (c.fn != static_cast<int>(node.di)) continue;
        if (conc_.safe.count(c.name) > 0) continue;
        if (conc_.blocking.count(c.name) > 0) {
          Report(node.fi, c.line, c.col, "loop-blocking",
                 "blocking call '" + c.name +
                     "' is reachable from event-loop entry (path: " +
                     node.chain + " -> " + c.name +
                     "); the loop thread must never block — use the "
                     "nonblocking socket_io wrappers or hand the work to a "
                     "worker");
          continue;
        }
        std::vector<std::pair<size_t, size_t>> targets;
        resolve(node.fi, c, &targets);
        for (const auto& [dfi, ddi] : targets) {
          if (visited.insert({dfi, ddi}).second) {
            std::string chain = node.chain;
            // Keep paths readable: cap the printed chain, not the search.
            if (std::count(chain.begin(), chain.end(), '>') < 8) {
              chain += " -> " + files_[dfi].summary.decls[ddi].name;
            }
            queue.push_back({dfi, ddi, chain});
          }
        }
      }
    }
  }

  // -------------------------------------------------- unordered-output

  void CheckUnorderedOutput() {
    for (size_t fi = 0; fi < files_.size(); ++fi) {
      std::set<std::string> unordered;
      for (size_t ci : closures_[fi]) {
        unordered.insert(files_[ci].summary.unordered.begin(),
                         files_[ci].summary.unordered.end());
      }
      if (unordered.empty()) continue;
      for (const RangeForFact& f : files_[fi].summary.range_fors) {
        if (!f.serializes || unordered.count(f.ident) == 0) continue;
        Report(fi, f.line, f.col, "unordered-output",
               "iteration over unordered container '" + f.ident +
                   "' feeds serialized output; the order is "
                   "nondeterministic across runs — copy to a sorted "
                   "container first");
      }
    }
  }

  const std::vector<FileAnalysis>& files_;
  const LayerGraph* layers_;
  const std::string layers_path_;
  const ConcurrencyConfig& conc_;
  std::map<std::string, size_t> key_to_file_;
  std::vector<std::vector<size_t>> closures_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

std::vector<Diagnostic> RunGlobalRules(const std::vector<FileAnalysis>& files,
                                       const LayerGraph* layers,
                                       const std::string& layers_path,
                                       const ConcurrencyConfig& conc) {
  GlobalPass pass(files, layers, layers_path, conc);
  return pass.Run();
}

}  // namespace lint
