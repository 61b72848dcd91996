#include "lint/rules.h"

#include <array>
#include <algorithm>

#include "lint/rules_scope.h"
#include "lint/scope.h"
#include "lint/suppression.h"

namespace qrn::lint {

namespace {

// ---- small matching helpers over the non-comment token view ------------

[[nodiscard]] const Token& tok(const FileContext& c, std::size_t ci) {
    return c.tokens[c.code[ci]];
}

[[nodiscard]] bool text_is(const FileContext& c, std::size_t ci,
                           std::string_view text) {
    return ci < c.code.size() && tok(c, ci).text == text;
}

[[nodiscard]] bool is_ident(const FileContext& c, std::size_t ci,
                            std::string_view text) {
    return ci < c.code.size() && tok(c, ci).kind == TokKind::Identifier &&
           tok(c, ci).text == text;
}

[[nodiscard]] bool path_starts_with(const std::string& path,
                                    std::string_view prefix) {
    return path.size() >= prefix.size() &&
           std::string_view(path).substr(0, prefix.size()) == prefix;
}

template <std::size_t N>
[[nodiscard]] bool any_of_names(const std::array<std::string_view, N>& names,
                                std::string_view text) {
    return std::find(names.begin(), names.end(), text) != names.end();
}

// ---- raw-parse ---------------------------------------------------------

constexpr std::array<std::string_view, 23> kRawParseNames{
    "stod",    "stof",    "stold",    "stoi",     "stol",     "stoll",
    "stoul",   "stoull",  "atoi",     "atol",     "atoll",    "atof",
    "strtod",  "strtof",  "strtold",  "strtol",   "strtoll",  "strtoul",
    "strtoull", "sscanf", "vsscanf",  "scanf",    "fscanf"};

void check_raw_parse(const FileContext& c, std::vector<Finding>& out) {
    if (c.path == "src/tools/parse.cpp" || c.path == "src/qrn/json.cpp") return;
    for (std::size_t ci = 0; ci < c.code.size(); ++ci) {
        const Token& t = tok(c, ci);
        if (t.kind == TokKind::Identifier && any_of_names(kRawParseNames, t.text)) {
            out.push_back({c.path, t.line, "raw-parse",
                           "raw numeric parsing ('" + t.text +
                               "') bypasses the checked grammar; use "
                               "qrn_tools_parse (src/tools/parse.h)"});
        }
    }
}

// ---- ambient-rng -------------------------------------------------------

constexpr std::array<std::string_view, 10> kAmbientRngNames{
    "rand",          "srand",      "rand_r",
    "random_device", "mt19937",    "mt19937_64",
    "minstd_rand",   "minstd_rand0", "default_random_engine",
    "random_shuffle"};

void check_ambient_rng(const FileContext& c, std::vector<Finding>& out) {
    if (c.path == "src/stats/rng.cpp") return;
    for (std::size_t ci = 0; ci < c.code.size(); ++ci) {
        const Token& t = tok(c, ci);
        if (t.kind == TokKind::Identifier && any_of_names(kAmbientRngNames, t.text)) {
            out.push_back({c.path, t.line, "ambient-rng",
                           "ambient randomness ('" + t.text +
                               "') breaks bit-identical replay; seed a "
                               "stats::Rng (src/stats/rng.h)"});
        }
    }
}

// ---- naked-new ---------------------------------------------------------

void check_naked_new(const FileContext& c, std::vector<Finding>& out) {
    for (std::size_t ci = 0; ci < c.code.size(); ++ci) {
        const Token& t = tok(c, ci);
        if (t.kind != TokKind::Identifier) continue;
        const std::string prev = ci > 0 ? tok(c, ci - 1).text : "";
        if (t.text == "new") {
            if (prev == "operator") continue;  // allocation-function declaration
            out.push_back({c.path, t.line, "naked-new",
                           "naked 'new' is banned; use std::make_unique / "
                           "std::make_shared or a container"});
        } else if (t.text == "delete") {
            // "= delete" (deleted function) and "operator delete" are
            // declarations, not deallocations.
            if (prev == "=" || prev == "operator") continue;
            out.push_back({c.path, t.line, "naked-new",
                           "naked 'delete' is banned; ownership must live in "
                           "RAII types, never in a manual delete"});
        }
    }
}

// ---- thread-discipline -------------------------------------------------

void check_thread_discipline(const FileContext& c, std::vector<Finding>& out) {
    // Two sanctioned concurrency modules: src/exec owns the pool, and
    // src/serve owns the daemon's long-lived accept/reader/dispatcher/
    // sealer threads (I/O-bound waiting a fixed pool cannot host without
    // starving compute work).
    if (path_starts_with(c.path, "src/exec/") ||
        path_starts_with(c.path, "src/serve/")) {
        return;
    }
    for (std::size_t ci = 2; ci < c.code.size(); ++ci) {
        const Token& t = tok(c, ci);
        if (t.kind != TokKind::Identifier ||
            (t.text != "thread" && t.text != "jthread")) {
            continue;
        }
        if (text_is(c, ci - 1, "::") && is_ident(c, ci - 2, "std")) {
            out.push_back({c.path, t.line, "thread-discipline",
                           "std::" + t.text +
                               " outside src/exec or src/serve; run "
                               "work on the shared pool via exec::parallel_for/"
                               "parallel_map (src/exec/parallel.h)"});
        }
    }
}

// ---- rng-stream --------------------------------------------------------

constexpr std::array<std::string_view, 3> kParallelEntryPoints{
    "parallel_for", "parallel_map", "parallel_chunks"};

/// ci sits on "<": returns the index just past the matching ">", or
/// `fail` if the angle bracket run does not close sanely.
[[nodiscard]] std::size_t skip_template_args(const FileContext& c, std::size_t ci,
                                             std::size_t fail) {
    int depth = 0;
    for (; ci < c.code.size(); ++ci) {
        const std::string& s = tok(c, ci).text;
        if (s == "<") {
            ++depth;
        } else if (s == ">") {
            if (--depth == 0) return ci + 1;
        } else if (s == ";" || s == "{" || s == "}") {
            return fail;  // was a comparison, not template arguments
        }
    }
    return fail;
}

void check_rng_stream(const FileContext& c, std::vector<Finding>& out) {
    std::vector<int> flagged_lines;
    for (std::size_t ci = 0; ci < c.code.size(); ++ci) {
        const Token& t = tok(c, ci);
        if (t.kind != TokKind::Identifier ||
            !any_of_names(kParallelEntryPoints, t.text)) {
            continue;
        }
        std::size_t open = ci + 1;
        if (text_is(c, open, "<")) {
            open = skip_template_args(c, open, c.code.size());
        }
        if (!text_is(c, open, "(")) continue;

        // Walk the balanced argument list of the parallel_* call and flag
        // any direct Rng construction inside it. Rng::stream(seed, index)
        // is the blessed schedule-independent derivation; everything else
        // ("Rng rng(x)", "Rng(x)", "Rng rng{x}") bakes draw order into
        // the chunk schedule.
        int depth = 0;
        for (std::size_t j = open; j < c.code.size(); ++j) {
            const std::string& s = tok(c, j).text;
            if (s == "(") ++depth;
            if (s == ")" && --depth == 0) break;
            if (!is_ident(c, j, "Rng")) continue;
            std::size_t k = j + 1;
            if (text_is(c, k, "::")) continue;  // Rng::stream / stream_seed
            if (k < c.code.size() && tok(c, k).kind == TokKind::Identifier) {
                ++k;  // "Rng rng(...)" declaration form
            }
            if (text_is(c, k, "(") || text_is(c, k, "{")) {
                const int line = tok(c, j).line;
                if (std::find(flagged_lines.begin(), flagged_lines.end(), line) ==
                    flagged_lines.end()) {
                    flagged_lines.push_back(line);
                    out.push_back(
                        {c.path, line, "rng-stream",
                         "direct Rng seeding inside a parallel region is "
                         "schedule-dependent; derive per-index streams with "
                         "stats::Rng::stream(seed, index)"});
                }
            }
        }
    }
}

// ---- using-namespace-header --------------------------------------------

void check_using_namespace_header(const FileContext& c, std::vector<Finding>& out) {
    if (!c.is_header) return;
    for (std::size_t ci = 0; ci + 1 < c.code.size(); ++ci) {
        if (is_ident(c, ci, "using") && is_ident(c, ci + 1, "namespace")) {
            out.push_back({c.path, tok(c, ci).line, "using-namespace-header",
                           "'using namespace' in a header leaks into every "
                           "includer; qualify names instead"});
        }
    }
}

// ---- iostream-in-lib ---------------------------------------------------

void check_iostream_in_lib(const FileContext& c, std::vector<Finding>& out) {
    if (!path_starts_with(c.path, "src/")) return;
    for (std::size_t ci = 0; ci + 4 < c.code.size(); ++ci) {
        if (text_is(c, ci, "#") && is_ident(c, ci + 1, "include") &&
            text_is(c, ci + 2, "<") && is_ident(c, ci + 3, "iostream") &&
            text_is(c, ci + 4, ">")) {
            out.push_back({c.path, tok(c, ci).line, "iostream-in-lib",
                           "<iostream> in library code pulls in global stream "
                           "objects and static init; take a std::ostream& or "
                           "return strings (CLI entry points may suppress)"});
        }
    }
}

// ---- raw-file-io -------------------------------------------------------

constexpr std::array<std::string_view, 3> kRawIoFunctions{"fread", "fwrite",
                                                          "fopen"};

/// Unchecked binary stream I/O is confined to the shard store - the one
/// layer that checksums every byte it reads back - and the manifest
/// serializer. Anywhere else, raw fread/fwrite or stream .read()/.write()
/// produces bytes no integrity check ever sees.
void check_raw_file_io(const FileContext& c, std::vector<Finding>& out) {
    if (path_starts_with(c.path, "src/store/")) return;
    if (c.path == "src/obs/manifest.cpp") return;
    for (std::size_t ci = 0; ci < c.code.size(); ++ci) {
        const Token& t = tok(c, ci);
        if (t.kind != TokKind::Identifier) continue;
        if (any_of_names(kRawIoFunctions, t.text)) {
            out.push_back({c.path, t.line, "raw-file-io",
                           "raw binary file I/O ('" + t.text +
                               "') outside src/store bypasses the checksummed "
                               "shard layer; go through qrn_store or the "
                               "checked JSON loaders"});
            continue;
        }
        // Member-call form: stream.read(...) / stream->write(...). The
        // tokenizer emits "->" as two punctuators, '-' then '>'.
        if ((t.text == "read" || t.text == "write") && ci > 0 &&
            (text_is(c, ci - 1, ".") ||
             (ci > 1 && text_is(c, ci - 2, "-") && text_is(c, ci - 1, ">"))) &&
            text_is(c, ci + 1, "(")) {
            out.push_back({c.path, t.line, "raw-file-io",
                           "unchecked stream ." + t.text +
                               "() outside src/store bypasses the checksummed "
                               "shard layer; go through qrn_store or the "
                               "checked JSON loaders"});
        }
    }
}

// ---- throw-message -----------------------------------------------------

constexpr std::array<std::string_view, 7> kPreconditionExceptions{
    "invalid_argument", "logic_error",   "domain_error", "out_of_range",
    "length_error",     "runtime_error", "range_error"};

void check_throw_message(const FileContext& c, std::vector<Finding>& out) {
    for (std::size_t ci = 0; ci < c.code.size(); ++ci) {
        if (!is_ident(c, ci, "throw")) continue;
        // Skip the (possibly qualified) thrown type: id ("::" id)*.
        std::size_t j = ci + 1;
        std::string last_ident;
        while (j < c.code.size() && tok(c, j).kind == TokKind::Identifier) {
            last_ident = tok(c, j).text;
            if (!text_is(c, j + 1, "::")) {
                ++j;
                break;
            }
            j += 2;
        }
        if (last_ident.empty() ||
            !any_of_names(kPreconditionExceptions, last_ident)) {
            continue;
        }
        const bool paren = text_is(c, j, "(");
        const bool brace = text_is(c, j, "{");
        if (!paren && !brace) continue;
        const Token& first_arg = j + 1 < c.code.size()
                                     ? tok(c, j + 1)
                                     : Token{};
        const bool empty_args =
            (paren && first_arg.text == ")") || (brace && first_arg.text == "}");
        const bool empty_message =
            first_arg.kind == TokKind::String &&
            (first_arg.text == "\"\"" || first_arg.text == "u8\"\"");
        if (empty_args || empty_message) {
            out.push_back({c.path, tok(c, ci).line, "throw-message",
                           "precondition throw of std::" + last_ident +
                               " carries no message; say which contract was "
                               "violated and by what value"});
        }
    }
}

}  // namespace

FileContext make_context(std::string path, std::string_view src) {
    FileContext ctx;
    ctx.path = std::move(path);
    const std::size_t dot = ctx.path.rfind('.');
    if (dot != std::string::npos) {
        const std::string ext = ctx.path.substr(dot);
        ctx.is_header = ext == ".h" || ext == ".hpp" || ext == ".hh" || ext == ".inl";
    }
    ctx.tokens = tokenize(src);
    for (std::size_t i = 0; i < ctx.tokens.size(); ++i) {
        if (ctx.tokens[i].kind != TokKind::Comment) ctx.code.push_back(i);
    }
    ctx.pp_lines = preprocessor_lines(src);
    return ctx;
}

const std::vector<Rule>& rules() {
    static const std::vector<Rule> kRules = [] {
        std::vector<Rule> r;
        r.push_back(Rule{"raw-parse",
                     "std::sto*/ato*/strto*/sscanf outside the checked parse "
                     "layer (src/tools/parse.cpp, src/qrn/json.cpp)",
                     check_raw_parse});
        r.push_back(Rule{"ambient-rng",
                     "rand()/std::random_device/engine construction outside "
                     "src/stats/rng.cpp",
                     check_ambient_rng});
        r.push_back(Rule{"naked-new",
                     "naked new/delete expressions (ownership must be RAII)",
                     check_naked_new});
        r.push_back(Rule{"thread-discipline",
                     "std::thread/std::jthread outside src/exec or src/serve "
                     "(use the shared pool)",
                     check_thread_discipline});
        r.push_back(Rule{"rng-stream",
                     "direct Rng seeding inside parallel_for/map/chunks "
                     "arguments (use Rng::stream)",
                     check_rng_stream});
        r.push_back(Rule{"using-namespace-header",
                     "'using namespace' at any scope in a header",
                     check_using_namespace_header});
        r.push_back(Rule{"iostream-in-lib",
                     "#include <iostream> in src/ library code",
                     check_iostream_in_lib});
        r.push_back(Rule{"raw-file-io",
                     "fread/fwrite/fopen or stream .read()/.write() outside "
                     "src/store and the manifest serializer",
                     check_raw_file_io});
        r.push_back(Rule{"throw-message",
                     "precondition throw (std::invalid_argument & co) with "
                     "empty or missing message",
                     check_throw_message});
        r.push_back(Rule{"hotloop-alloc",
                     "per-iteration heap allocation (owning std container "
                     "declaration, make_unique/make_shared) inside a "
                     "qrn:hotloop(begin)/(end) region - scope-aware: "
                     "buffers hoisted before the loop are clean; "
                     "unbalanced markers",
                     check_hotloop_alloc_scoped});
        r.push_back(Rule{"guarded-by",
                     "a member annotated '// qrn:guarded_by(mu_)' touched "
                     "with no lock_guard/unique_lock on that mutex in scope",
                     check_guarded_by});
        r.push_back(Rule{"guard-annotation",
                     "malformed qrn:guarded_by/qrn:lock_order annotation, "
                     "or one naming a nonexistent member or non-mutex",
                     check_guard_annotation});
        r.push_back(Rule{"lock-order",
                     "acquiring a mutex against the declared "
                     "'// qrn:lock_order(outer < inner)' hierarchy, or "
                     "re-acquiring one already held",
                     check_lock_order});
        r.push_back(Rule{"dispatcher-no-block",
                     "blocking call (socket/file I/O, sleep, join) inside "
                     "a qrn:dispatcher(begin)/(end) region; unbalanced "
                     "markers",
                     check_dispatcher_no_block});
        r.push_back(Rule{"unchecked-seal",
                     "discarded result of ShardWriter::seal, "
                     "BoundedQueue::try_push or tools::parse_*; raw fsync "
                     "outside the store's sync wrappers",
                     check_unchecked_seal});
        r.push_back(Rule{kSuppressionHygieneRule,
                     "malformed 'qrn-lint: allow(...)' comment: no reason, "
                     "unknown rule id (never suppressible)",
                     [](const FileContext&, std::vector<Finding>&) {
                         // Emitted by SuppressionSet while parsing comments.
                     }});
        return r;
    }();
    return kRules;
}

const std::set<std::string>& rule_ids() {
    static const std::set<std::string> kIds = [] {
        std::set<std::string> ids;
        for (const Rule& r : rules()) ids.insert(r.id);
        return ids;
    }();
    return kIds;
}

}  // namespace qrn::lint
