// Golden diagnostic corpus for the scenario compiler. A deterministic
// generator mutates the committed descriptions under scenarios/ and one
// description that sets every key of the schema, compiles each mutant, and
// compares its outcome with tests/scen/schema_corpus.golden, one line per
// document: either the diagnostic, or "OK" with the cell count and an
// FNV-64 of a canonical dump of every field the schema sets.
//
// The first line of each document is its unmutated outcome, so the corpus
// also pins what every committed description compiles to. Mutations,
// applied one at a time to an otherwise valid document:
//   - every object gains an unknown key ("+");
//   - every key is deleted ("-") and misspelled ("~");
//   - every value is replaced: in the every-key description each scalar
//     by each entry of kValues (every JSON type, straddling the schema's
//     bounds) and each object or array by null and by a value of the wrong
//     type; in the committed descriptions by one value of the wrong type;
//   - array elements 0, 1 and the last are dropped and duplicated.
//
// The golden holds outcomes only: labels would double its size, and most
// diagnostics name their path anyway. A mismatch names the mutant ("every
// $.overrides.rsu_count =64": document, JSON path, mutation), and the test
// writes the outcomes it computed to a temp file in the golden's format, so
// a deliberate diagnostic change is reviewed as a diff of the golden.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "scen/schema.hpp"

namespace ps = platoon::scen;
using platoon::obs::Json;

namespace {

/// Sets every key of every block the schema reads at least once, and
/// compiles (24 cells per grid).
const char* kEveryKey = R"({
  "name": "every_key",
  "title": "every key of the description schema",
  "profile": "detection",
  "seed": 7,
  "seeds": 2,
  "overrides": {
    "platoon_size": 8,
    "controller": "cacc-ploeg",
    "initial_speed_mps": 22.0,
    "initial_gap_m": 6.0,
    "rsu_count": 3,
    "control_period_s": 0.02,
    "beacon_period_s": 0.2,
    "share_verify_verdicts": false,
    "security": {
      "auth_mode": "signature",
      "encrypt_payloads": true,
      "freshness_window_s": 0.4,
      "check_replay": true,
      "pseudonym_rotation_s": 30.0,
      "vpd_ada": true,
      "trust_management": true,
      "hybrid_comms": false,
      "sensor_fusion": true,
      "firewall": true,
      "antivirus": false,
      "report_misbehavior": true,
      "join_rate_limit_s": 2.0
    },
    "platoons": [
      {"size": 6, "start_offset_m": -600.0, "lane": 1, "speed_delta_mps": 1.5},
      {"size": 5, "start_offset_m": -1200.0, "lane": 2, "speed_delta_mps": -1.0}
    ],
    "corridor": [
      {"event": "merge", "at_s": 20.0, "platoon": 1},
      {"event": "split", "at_s": 30.0, "platoon": 2, "index": 3},
      {"event": "cut-in", "at_s": 25.0, "platoon": 1, "index": 2},
      {"event": "rsu-handoff", "at_s": 40.0, "platoon": 0, "index": 1}
    ],
    "stealth": {
      "injections": ["gps-spoof", "sensor-spoof"],
      "victim_index": 3,
      "start_s": 20.0,
      "horizon_s": 60.0,
      "amplitude": {"min": 0.5, "max": 4.0, "steps": 3},
      "ramp": {"min": 0.0, "max": 2.0, "steps": 2},
      "duty": {"min": 0.5, "max": 1.0, "steps": 2},
      "duty_period_s": 6.0,
      "onset_max_s": 1.5,
      "cem": {"iterations": 2, "population": 10, "elites": 3},
      "seeds": 2
    }
  },
  "fault_presets": {
    "burst": {
      "burst_loss": [{"start_s": 20.0, "end_s": 60.0, "mean_good_s": 1.0,
                      "mean_bad_s": 0.4, "loss_good": 0.01, "loss_bad": 0.9}]
    },
    "mixed": {
      "crashes": [{"vehicle_index": 3, "at_s": 25.0, "down_s": 10.0}],
      "sensor_dropouts": [{"vehicle_index": 2, "start_s": 25.0,
                           "duration_s": 5.0}],
      "clock_drifts": [{"vehicle_index": 4, "start_s": 20.0, "offset_s": 0.2,
                        "drift_s_per_s": 0.01}]
    }
  },
  "grids": [
    {
      "axes": {
        "attacks": ["replay", "jamming"],
        "attacked": [false, true],
        "defenses": ["none", "roadside-units"],
        "faults": ["none", "burst", "mixed"]
      },
      "seeds": 3,
      "overrides": {"platoon_size": 7, "security": {"check_replay": false}}
    }
  ]
})";

/// Replacement values for the every-key description: each JSON type, and
/// numbers on and just past the schema's bounds.
const char* kValues[] = {
    "null",     "true", "\"x\"", "[]", "{}",  "-1000001", "-1",   "0",
    "0.0005",   "0.5",  "1",     "2",  "63",  "64",       "1001", "1000001",
    "1e19"};

const char* kCommitted[] = {"example_replay",   "fuzz_space",
                            "scale_corridor",   "stealth_frontier",
                            "table2_threats",   "table3_mitigations",
                            "table_faults"};

std::string hex(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/// Every field the schema sets, in a fixed order.
std::string dump(const ps::Compiled& c) {
    std::ostringstream os;
    const ps::Description& d = c.description;
    os << d.name << '|' << d.title << '|' << d.profile << '|' << d.seed << '|'
       << d.grid_count << '\n';
    if (c.stealth) {
        const ps::StealthOverrides& s = *c.stealth;
        for (const std::string& name : s.injections) os << name << ',';
        os << s.victim_index << ' ' << hex(s.start_s) << ' ' << hex(s.horizon_s)
           << ' ' << hex(s.amplitude_min) << ' ' << hex(s.amplitude_max) << ' '
           << s.amplitude_steps << ' ' << hex(s.ramp_min) << ' '
           << hex(s.ramp_max) << ' ' << s.ramp_steps << ' '
           << hex(s.duty_min) << ' ' << hex(s.duty_max) << ' ' << s.duty_steps
           << ' ' << hex(s.duty_period_s) << ' ' << hex(s.onset_max_s) << ' '
           << s.cem_iterations << ' ' << s.cem_population << ' '
           << s.cem_elites << ' ' << s.seeds << '\n';
    }
    for (const ps::CompiledCell& cell : c.cells) {
        const auto& k = cell.config;
        const auto& p = k.security;
        os << static_cast<int>(cell.attack) << ' ' << cell.with_attack << ' '
           << static_cast<int>(cell.defense) << ' ' << cell.fault << ' '
           << cell.seeds << ' ' << cell.grid << " | " << k.seed << ' '
           << k.platoon_size << ' ' << static_cast<int>(k.controller) << ' '
           << hex(k.initial_speed_mps) << ' ' << hex(k.initial_gap_m) << ' '
           << k.rsu_count << ' ' << k.rsus_require_signatures << ' '
           << hex(k.control_period_s) << ' ' << hex(k.beacon_period_s) << ' '
           << k.share_verify_verdicts << " | "
           << static_cast<int>(p.auth_mode) << p.encrypt_payloads
           << p.check_replay << p.vpd_ada << p.trust_management
           << p.hybrid_comms << p.sensor_fusion << p.firewall << p.antivirus
           << p.report_misbehavior << ' ' << hex(p.freshness_window_s) << ' '
           << hex(p.pseudonym_rotation_s) << ' ' << hex(p.join_rate_limit_s);
        for (const auto& e : k.extra_platoons)
            os << " P" << e.size << ' ' << hex(e.start_offset_m) << ' '
               << int{e.lane} << ' ' << hex(e.speed_delta_mps);
        for (const auto& e : k.corridor)
            os << " C" << static_cast<int>(e.kind) << ' ' << hex(e.at) << ' '
               << e.platoon << ' ' << e.index;
        for (const auto& f : k.faults.burst_loss)
            os << " B" << hex(f.start_s) << ' ' << hex(f.end_s) << ' '
               << hex(f.mean_good_s) << ' ' << hex(f.mean_bad_s) << ' '
               << hex(f.loss_good) << ' ' << hex(f.loss_bad);
        for (const auto& f : k.faults.crashes)
            os << " X" << f.vehicle_index << ' ' << hex(f.at_s) << ' '
               << hex(f.down_s);
        for (const auto& f : k.faults.sensor_dropouts)
            os << " S" << f.vehicle_index << ' ' << hex(f.start_s) << ' '
               << hex(f.duration_s);
        for (const auto& f : k.faults.clock_drifts)
            os << " D" << f.vehicle_index << ' ' << hex(f.start_s) << ' '
               << hex(f.offset_s) << ' ' << hex(f.drift_s_per_s);
        os << '\n';
    }
    return os.str();
}

std::uint64_t fnv64(const std::string& text) {
    std::uint64_t h = 14695981039346656037ull;
    for (const char ch : text) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ull;
    }
    return h;
}

std::string outcome(const Json& doc) {
    std::string error;
    const std::optional<ps::Compiled> compiled = ps::compile(doc, &error);
    if (!compiled) return error;
    char buf[64];
    std::snprintf(buf, sizeof buf, "OK %zu cells %016" PRIx64,
                  compiled->cells.size(), fnv64(dump(*compiled)));
    return buf;
}

Json parse(const std::string& text) {
    std::optional<Json> doc = Json::parse(text);
    EXPECT_TRUE(doc.has_value()) << text;
    return doc ? *doc : Json();
}

/// One value of a different JSON type than `v`.
Json wrong_type(const Json& v) {
    switch (v.type()) {
        case Json::Type::kString: return Json::integer(7);
        case Json::Type::kArray: return Json::object();
        case Json::Type::kObject: return Json::array();
        default: return Json::string("7");
    }
}

struct Mutant {
    std::string label;
    std::string outcome;
};

/// Walks one document, mutating it in place and restoring each mutation
/// after recording the outcome, so every mutant differs from the original
/// in exactly one place.
class Corpus {
public:
    Corpus(std::string name, bool every_value, std::vector<Mutant>& out)
        : name_(std::move(name)), every_value_(every_value), out_(out) {}

    void run(Json& root) {
        root_ = &root;
        record("$ unmutated");
        visit(root, "$");
    }

private:
    void record(const std::string& label) {
        out_.push_back({name_ + ' ' + label, outcome(*root_)});
    }

    /// Replaces `slot` by each mutation value in turn, then restores it.
    void replace(Json& slot, const std::string& path) {
        const Json saved = slot;
        if (every_value_ && !saved.is_object() && !saved.is_array()) {
            for (const char* text : kValues) {
                slot = parse(text);
                record(path + " =" + text);
            }
        } else {
            if (every_value_) {
                slot = Json();
                record(path + " =null");
            }
            slot = wrong_type(saved);
            record(path + " =wrong-type");
        }
        slot = saved;
    }

    void visit(Json& node, const std::string& path) {
        if (node.is_object()) {
            Json::Object& object = node.as_object();
            object.emplace("zz_unknown", Json::integer(1));
            record(path + " +");
            object.erase("zz_unknown");
            std::vector<std::string> keys;
            for (const auto& [key, value] : object) keys.push_back(key);
            for (const std::string& key : keys) {
                const std::string at = path + '.' + key;
                const Json saved = object.at(key);
                object.erase(key);
                record(at + " -");
                const std::string typo = key.size() < 2
                                             ? key + key
                                             : key.substr(1, 1) + key[0] +
                                                   key.substr(2);
                object.emplace(typo, saved);
                record(at + " ~");
                object.erase(typo);
                object.emplace(key, saved);
                replace(object.at(key), at);
                visit(object.at(key), at);
            }
        } else if (node.is_array()) {
            Json::Array& items = node.as_array();
            const std::size_t n = items.size();
            std::set<std::size_t> picks;
            for (const std::size_t i : {std::size_t{0}, std::size_t{1}, n - 1})
                if (i < n) picks.insert(i);
            for (const std::size_t i : picks) {
                const std::string at = path + '[' + std::to_string(i) + ']';
                const auto pos = [&] {
                    return items.begin() + static_cast<std::ptrdiff_t>(i);
                };
                const Json saved = items[i];
                items.erase(pos());
                record(at + " drop");
                items.insert(pos(), saved);
                items.insert(pos(), saved);
                record(at + " dup");
                items.erase(pos());
                replace(items[i], at);
                visit(items[i], at);
            }
        }
    }

    std::string name_;
    bool every_value_;
    std::vector<Mutant>& out_;
    Json* root_ = nullptr;
};

std::vector<Mutant> generate() {
    std::vector<Mutant> lines;
    Json every = parse(kEveryKey);
    Corpus("every", /*every_value=*/true, lines).run(every);
    EXPECT_EQ(lines.front().outcome.rfind("OK 24 cells", 0), 0u)
        << lines.front().outcome;
    for (const char* name : kCommitted) {
        const std::string path =
            std::string(PLATOON_SCENARIO_DIR) + "/" + name + ".json";
        std::ifstream in(path);
        std::stringstream text;
        text << in.rdbuf();
        Json doc = parse(text.str());
        Corpus(name, /*every_value=*/false, lines).run(doc);
    }
    return lines;
}

}  // namespace

TEST(ScenSchemaCorpus, EveryMutantMatchesTheGoldenOutcome) {
    const std::vector<Mutant> actual = generate();
    std::vector<std::string> golden;
    std::ifstream in(PLATOON_SCHEMA_CORPUS_GOLDEN);
    for (std::string line; std::getline(in, line);) golden.push_back(line);
    EXPECT_EQ(actual.size(), golden.size());

    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        const std::string g = i < golden.size() ? golden[i] : "<none>";
        if (actual[i].outcome == g) continue;
        if (++mismatches <= 10)
            ADD_FAILURE() << "line " << i + 1 << ", mutant " << actual[i].label
                          << "\n  golden: " << g
                          << "\n  actual: " << actual[i].outcome;
    }
    if (mismatches > 0 || actual.size() != golden.size()) {
        const std::string path = testing::TempDir() + "schema_corpus.actual";
        std::ofstream out(path);
        for (const Mutant& m : actual) out << m.outcome << '\n';
        ADD_FAILURE() << mismatches << " of " << actual.size()
                      << " outcomes differ from " PLATOON_SCHEMA_CORPUS_GOLDEN
                      << "; the computed outcomes are in " << path;
    }
}
