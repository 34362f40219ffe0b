#include "scen/schema.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <type_traits>

namespace platoon::scen {

namespace {

/// Joins registry names for an "expected one of ..." error tail.
std::string join_names(const std::vector<std::string>& names) {
    std::string out;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i > 0) out += ", ";
        out += names[i];
    }
    return out;
}

/// Carries the first diagnostic; later checks become no-ops once set.
struct Diag {
    std::string message;
    bool failed = false;

    void fail(const std::string& path, const std::string& what) {
        if (failed) return;
        failed = true;
        message = path + ": " + what;
    }
};

bool want_bool(const obs::Json& v, const std::string& path, Diag& diag,
               bool* out) {
    if (v.type() != obs::Json::Type::kBool) {
        diag.fail(path, "expected true/false");
        return false;
    }
    *out = v.as_bool();
    return true;
}

bool want_int(const obs::Json& v, const std::string& path, std::int64_t lo,
              std::int64_t hi, Diag& diag, std::int64_t* out) {
    if (!v.is_int()) {
        diag.fail(path, "expected an integer");
        return false;
    }
    const std::int64_t value = v.as_int();
    if (value < lo || value > hi) {
        diag.fail(path, "value " + std::to_string(value) +
                            " out of range [" + std::to_string(lo) + ", " +
                            std::to_string(hi) + "]");
        return false;
    }
    *out = value;
    return true;
}

bool want_double(const obs::Json& v, const std::string& path, double lo,
                 double hi, Diag& diag, double* out) {
    if (!v.is_number()) {
        diag.fail(path, "expected a number");
        return false;
    }
    const double value = v.as_double();
    if (value < lo || value > hi) {
        std::ostringstream os;
        os << "value " << value << " out of range [" << lo << ", " << hi
           << "]";
        diag.fail(path, os.str());
        return false;
    }
    *out = value;
    return true;
}

bool want_string(const obs::Json& v, const std::string& path, Diag& diag,
                 std::string* out) {
    if (!v.is_string()) {
        diag.fail(path, "expected a string");
        return false;
    }
    *out = v.as_string();
    return true;
}

// -----------------------------------------------------------------------
// Axes of names.

/// Parses an axis of names; "all" expands through `expand_all`. Duplicates
/// (after expansion) are errors: a repeated axis value silently doubles a
/// table row.
template <typename T, typename Lookup, typename ExpandAll>
std::vector<T> parse_name_axis(const obs::Json& axis, const std::string& path,
                               const std::vector<std::string>& known,
                               Lookup lookup, ExpandAll expand_all,
                               Diag& diag) {
    std::vector<T> out;
    if (!axis.is_array() || axis.as_array().empty()) {
        diag.fail(path, "expected a non-empty array of names");
        return out;
    }
    const obs::Json::Array& items = axis.as_array();
    for (std::size_t i = 0; i < items.size(); ++i) {
        const std::string at = path + "[" + std::to_string(i) + "]";
        std::string name;
        if (!want_string(items[i], at, diag, &name)) return out;
        if (name == "all") {
            const std::vector<T> expanded = expand_all();
            out.insert(out.end(), expanded.begin(), expanded.end());
            continue;
        }
        const std::optional<T> value = lookup(name);
        if (!value) {
            diag.fail(at, "unknown name '" + name + "'" +
                              suggest(name, known) + "; expected one of: " +
                              join_names(known));
            return out;
        }
        out.push_back(*value);
    }
    for (std::size_t i = 0; i < out.size(); ++i)
        for (std::size_t j = i + 1; j < out.size(); ++j)
            if (out[i] == out[j]) {
                diag.fail(path,
                          "duplicate axis entry (a repeated value would "
                          "silently duplicate table rows)");
                return out;
            }
    return out;
}

/// The lookup of an axis whose values are the names in `names` themselves.
auto listed(const std::vector<std::string>& names) {
    return [&names](const std::string& name) -> std::optional<std::string> {
        if (std::find(names.begin(), names.end(), name) == names.end())
            return std::nullopt;
        return name;
    };
}

std::vector<bool> parse_attacked_axis(const obs::Json& axis,
                                      const std::string& path, Diag& diag) {
    std::vector<bool> out;
    if (!axis.is_array() || axis.as_array().empty()) {
        diag.fail(path, "expected a non-empty array of booleans");
        return out;
    }
    const obs::Json::Array& items = axis.as_array();
    for (std::size_t i = 0; i < items.size(); ++i) {
        bool b = false;
        if (!want_bool(items[i], path + "[" + std::to_string(i) + "]", diag,
                       &b))
            return out;
        out.push_back(b);
    }
    if (out.size() > 2 || (out.size() == 2 && out[0] == out[1])) {
        diag.fail(path, "duplicate axis entry (a repeated value would "
                        "silently duplicate table rows)");
        return out;
    }
    return out;
}

// -----------------------------------------------------------------------
// The field binder.

/// What bind_block() does when an object lacks a field's key.
enum class Need {
    kOptional,  ///< Nothing: the target keeps its default.
    kRequired,  ///< "missing required key 'k'" at the object's path.
    kReader,    ///< Runs the reader on null, which words the diagnostic.
};

/// Reads one value at a path onto a block's target.
template <typename T>
using Reader = std::function<void(const obs::Json&, const std::string&,
                                  Diag&, T&)>;

template <typename T>
struct Field {
    std::string key;
    Reader<T> read;  ///< Checks the value's type and bounds, writes a member.
    Need need = Need::kOptional;
};

/// One JSON object of the schema, bound onto a T.
template <typename T>
struct Block {
    using Check = std::function<void(const std::string&, Diag&, const T&)>;

    explicit Block(std::vector<Field<T>> fields_in, Check check_in = {},
                   std::string not_object_in = "expected an object")
        : fields(std::move(fields_in)),
          check(std::move(check_in)),
          not_object(std::move(not_object_in)) {
        for (const Field<T>& field : fields) keys.push_back(field.key);
        std::sort(keys.begin(), keys.end());
    }

    std::vector<Field<T>> fields;   ///< In reading order.
    std::vector<std::string> keys;  ///< Sorted, for the unknown-key message.
    Check check;                    ///< Cross-field, after every field.
    std::string not_object;         ///< The diagnostic for a non-object.
};

/// Binds `value` onto `out`: the first key outside the block (in key order)
/// is an error, the present fields are read in table order, then the
/// block's cross-field check runs. Stops at the first diagnostic.
template <typename T>
void bind_block(const obs::Json& value, const std::string& path,
                const Block<T>& block, Diag& diag, T& out) {
    if (!value.is_object()) {
        diag.fail(path, block.not_object);
        return;
    }
    const obs::Json::Object& object = value.as_object();
    for (const auto& [key, member] : object) {
        (void)member;
        if (std::binary_search(block.keys.begin(), block.keys.end(), key))
            continue;
        diag.fail(path, "unknown key '" + key + "'" +
                            suggest(key, block.keys) +
                            "; expected one of: " + join_names(block.keys));
        return;
    }
    static const obs::Json kAbsent;
    // The top level's fields are named bare ("name", "grids[0]").
    const std::string prefix = path == "$" ? "" : path + ".";
    for (const Field<T>& field : block.fields) {
        const auto it = object.find(field.key);
        if (it == object.end() && field.need == Need::kOptional) continue;
        if (it == object.end() && field.need == Need::kRequired) {
            diag.fail(path, "missing required key '" + field.key + "'");
            return;
        }
        field.read(it == object.end() ? kAbsent : it->second,
                   prefix + field.key, diag, out);
        if (diag.failed) return;
    }
    if (block.check) block.check(path, diag, out);
}

// Readers. Each is generic in the block's target, which only has to hold
// (or derive from the class of) the member it writes.

template <typename M>
auto number(M member, double lo, double hi) {
    return [=](const obs::Json& v, const std::string& at, Diag& diag,
               auto& out) { want_double(v, at, lo, hi, diag, &(out.*member)); };
}

template <typename M>
auto integer(M member, std::int64_t lo, std::int64_t hi) {
    return [=](const obs::Json& v, const std::string& at, Diag& diag,
               auto& out) {
        using Int = std::remove_reference_t<decltype(out.*member)>;
        std::int64_t n = 0;
        if (want_int(v, at, lo, hi, diag, &n))
            out.*member = static_cast<Int>(n);
    };
}

template <typename M>
auto flag(M member) {
    return [=](const obs::Json& v, const std::string& at, Diag& diag,
               auto& out) { want_bool(v, at, diag, &(out.*member)); };
}

template <typename M>
auto text(M member) {
    return [=](const obs::Json& v, const std::string& at, Diag& diag,
               auto& out) { want_string(v, at, diag, &(out.*member)); };
}

/// A name that `lookup` resolves; an unknown one lists `names()`.
template <typename M, typename Lookup>
auto choice(M member, const char* what, Lookup lookup,
            std::vector<std::string> (*names)()) {
    return [=](const obs::Json& v, const std::string& at, Diag& diag,
               auto& out) {
        std::string name;
        if (!want_string(v, at, diag, &name)) return;
        const auto value = lookup(name);
        if (!value) {
            diag.fail(at, std::string("unknown ") + what + " '" + name +
                              "'" + suggest(name, names()) +
                              "; expected one of: " + join_names(names()));
            return;
        }
        out.*member = *value;
    };
}

/// A nested object bound onto the target itself.
template <typename T>
auto object(const Block<T>& block) {
    return [&block](const obs::Json& v, const std::string& at, Diag& diag,
                    T& out) { bind_block(v, at, block, diag, out); };
}

/// A nested object bound onto a member of the target.
template <typename M, typename T>
auto object(M member, const Block<T>& block) {
    return [member, &block](const obs::Json& v, const std::string& at,
                            Diag& diag, auto& out) {
        bind_block(v, at, block, diag, out.*member);
    };
}

/// An array of `block` objects that replaces the member's list. Given
/// `non_empty`, an empty array is an error too, and that is its wording.
template <typename M, typename T>
auto objects(M member, const Block<T>& block,
             const char* non_empty = nullptr) {
    return [=, &block](const obs::Json& v, const std::string& at, Diag& diag,
                       auto& out) {
        if (!v.is_array() || (non_empty != nullptr && v.as_array().empty())) {
            diag.fail(at,
                      non_empty != nullptr ? non_empty : "expected an array");
            return;
        }
        auto& list = out.*member;
        list.clear();
        for (std::size_t i = 0; i < v.as_array().size(); ++i) {
            T item{};
            bind_block(v.as_array()[i], at + "[" + std::to_string(i) + "]",
                       block, diag, item);
            if (diag.failed) return;
            list.push_back(item);
        }
    };
}

// -----------------------------------------------------------------------
// The tables, one per object of the schema. Each is built once.

using Config = core::ScenarioConfig;
using Presets = std::map<std::string, fault::FaultPlan>;

/// What an overrides block edits: a config, plus the description's stealth
/// slot, which only the top-level block has (grids hold nullptr).
struct Layer : Config {
    std::optional<StealthOverrides>* stealth = nullptr;
};

/// A grid's axes; `presets` is what its faults axis may name.
struct Axes {
    const Presets* presets = nullptr;
    std::vector<core::AttackKind> attacks;
    std::vector<bool> attacked{true};
    std::vector<core::DefenseKind> defenses{kNoDefense};
    std::vector<std::string> faults{"none"};
};

/// One grid: its axes and seeds, and the copy of the description's config
/// that its overrides edit.
struct Grid {
    Axes axes;
    std::size_t seeds = 1;
    Layer config;
};

/// The description: its own fields, plus what its grids share.
struct Top : Description {
    std::size_t seeds = 1;
    Presets presets;
    std::optional<Layer> base;  ///< See base_config().
    std::optional<StealthOverrides> stealth;
    std::vector<CompiledCell> cells;
};

/// The corridor events in core::CorridorEvent::Kind order.
std::vector<std::string> corridor_event_names() {
    return {"merge", "split", "cut-in", "rsu-handoff"};
}

std::optional<core::CorridorEvent::Kind> corridor_event_from_name(
    const std::string& name) {
    const std::vector<std::string> names = corridor_event_names();
    const auto it = std::find(names.begin(), names.end(), name);
    if (it == names.end()) return std::nullopt;
    return static_cast<core::CorridorEvent::Kind>(it - names.begin());
}

// Security and the overrides list their fields in key order, the order a
// std::map walks them, so of several faults the first by key is reported.
const Block<security::SecurityPolicy>& security_block() {
    using P = security::SecurityPolicy;
    static const Block<P> kBlock({
        {"antivirus", flag(&P::antivirus)},
        {"auth_mode", choice(&P::auth_mode, "auth mode", auth_mode_from_name,
                             auth_mode_names)},
        {"check_replay", flag(&P::check_replay)},
        {"encrypt_payloads", flag(&P::encrypt_payloads)},
        {"firewall", flag(&P::firewall)},
        {"freshness_window_s", number(&P::freshness_window_s, 1e-3, 10.0)},
        {"hybrid_comms", flag(&P::hybrid_comms)},
        {"join_rate_limit_s", number(&P::join_rate_limit_s, 0.0, 60.0)},
        {"pseudonym_rotation_s", number(&P::pseudonym_rotation_s, 0.0, 1e6)},
        {"report_misbehavior", flag(&P::report_misbehavior)},
        {"sensor_fusion", flag(&P::sensor_fusion)},
        {"trust_management", flag(&P::trust_management)},
        {"vpd_ada", flag(&P::vpd_ada)},
    });
    return kBlock;
}

// Corridor topology: extra platoons sharing the channel plus scripted
// traffic events between them (core::PlatoonSpec / core::CorridorEvent).

const Block<core::PlatoonSpec>& platoon_block() {
    using P = core::PlatoonSpec;
    static const Block<P> kBlock({
        {"size", integer(&P::size, 2, 99)},
        {"start_offset_m", number(&P::start_offset_m, -1e6, 1e6)},
        {"lane", integer(&P::lane, 0, 7)},
        {"speed_delta_mps", number(&P::speed_delta_mps, -20.0, 20.0)},
    });
    return kBlock;
}

const Block<core::CorridorEvent>& event_block() {
    using E = core::CorridorEvent;
    static const Block<E> kBlock({
        {"event",
         choice(&E::kind, "corridor event", corridor_event_from_name,
                corridor_event_names),
         Need::kRequired},
        {"at_s", number(&E::at, 0.0, 1e6), Need::kRequired},
        {"platoon", integer(&E::platoon, 0, 63)},
        {"index", integer(&E::index, 0, 98)},
    });
    return kBlock;
}

// Stealth-frontier block (`overrides.stealth`, top-level only).

using Stealth = StealthOverrides;

/// One {"min", "max", "steps"} axis of the search box.
Block<Stealth> search_axis(double lo, double hi, double Stealth::*min,
                           double Stealth::*max,
                           std::size_t Stealth::*steps) {
    return Block<Stealth>(
        {
            {"min", number(min, lo, hi)},
            {"max", number(max, lo, hi)},
            {"steps", integer(steps, 1, 32)},
        },
        [=](const std::string& path, Diag& diag, const Stealth& s) {
            if (s.*max < s.*min) diag.fail(path, "max must be >= min");
        },
        "expected an object {\"min\", \"max\", \"steps\"}");
}

const Block<Stealth>& stealth_block() {
    static const Block<Stealth> kAmplitude =
        search_axis(0.0, 100.0, &Stealth::amplitude_min,
                    &Stealth::amplitude_max, &Stealth::amplitude_steps);
    static const Block<Stealth> kRamp =
        search_axis(0.0, 100.0, &Stealth::ramp_min, &Stealth::ramp_max,
                    &Stealth::ramp_steps);
    static const Block<Stealth> kDuty =
        search_axis(0.01, 1.0, &Stealth::duty_min, &Stealth::duty_max,
                    &Stealth::duty_steps);
    static const Block<Stealth> kCem(
        {
            {"iterations", integer(&Stealth::cem_iterations, 0, 32)},
            {"population", integer(&Stealth::cem_population, 2, 256)},
            {"elites", integer(&Stealth::cem_elites, 2, 256)},
        },
        [](const std::string& path, Diag& diag, const Stealth& s) {
            if (s.cem_elites > s.cem_population)
                diag.fail(path,
                          "elites must not exceed population (the CEM refits "
                          "on the elite subset of each sampled population)");
        });
    const auto injections = [](const obs::Json& v, const std::string& at,
                               Diag& diag, Stealth& s) {
        const std::vector<std::string> known = stealth_injection_names();
        s.injections = parse_name_axis<std::string>(
            v, at, known, listed(known), [&] { return known; }, diag);
    };
    static const Block<Stealth> kBlock(
        {
            {"injections", injections, Need::kRequired},
            {"victim_index", integer(&Stealth::victim_index, 1, 63)},
            {"start_s", number(&Stealth::start_s, 0.0, 1e6)},
            {"horizon_s", number(&Stealth::horizon_s, 1.0, 1e6)},
            {"amplitude", object(kAmplitude)},
            {"ramp", object(kRamp)},
            {"duty", object(kDuty)},
            {"duty_period_s", number(&Stealth::duty_period_s, 0.1, 600.0)},
            {"onset_max_s", number(&Stealth::onset_max_s, 0.0, 60.0)},
            {"cem", object(kCem)},
            {"seeds", integer(&Stealth::seeds, 1, 64)},
        },
        [](const std::string& path, Diag& diag, const Stealth& s) {
            if (s.horizon_s <= s.start_s)
                diag.fail(path,
                          "horizon_s must be greater than start_s (the "
                          "injection window must fit inside the replication)");
        });
    return kBlock;
}

const Block<Layer>& overrides_block() {
    const auto platoons = [](const obs::Json& v, const std::string& at,
                             Diag& diag, Layer& layer) {
        // corridor_node() packs platoon*100 + index below the attacker id
        // range (9001+); 63 platoons of 99 tops out at node 8399.
        if (v.is_array() && v.as_array().size() > 63) {
            diag.fail(at, "at most 63 extra platoons fit the node-id space");
            return;
        }
        objects(&Config::extra_platoons, platoon_block(),
                "expected a non-empty array of platoon objects")(v, at, diag,
                                                                 layer);
    };
    const auto stealth = [](const obs::Json& v, const std::string& at,
                            Diag& diag, Layer& layer) {
        if (layer.stealth == nullptr) {
            diag.fail(at,
                      "stealth is only valid in the top-level overrides "
                      "block (the frontier search runs once per "
                      "description, not once per grid)");
            return;
        }
        bind_block(v, at, stealth_block(), diag, layer.stealth->emplace());
    };
    static const Block<Layer> kBlock({
        {"beacon_period_s", number(&Config::beacon_period_s, 1e-3, 10.0)},
        {"control_period_s", number(&Config::control_period_s, 1e-3, 1.0)},
        {"controller", choice(&Config::controller, "controller",
                              controller_from_name, controller_names)},
        {"corridor", objects(&Config::corridor, event_block(),
                             "expected a non-empty array of event objects")},
        {"initial_gap_m", number(&Config::initial_gap_m, 0.5, 100.0)},
        {"initial_speed_mps", number(&Config::initial_speed_mps, 1.0, 60.0)},
        {"platoon_size", integer(&Config::platoon_size, 2, 64)},
        {"platoons", platoons},
        {"rsu_count", integer(&Config::rsu_count, 0, 32)},
        {"security", object(&Config::security, security_block())},
        {"share_verify_verdicts", flag(&Config::share_verify_verdicts)},
        {"stealth", stealth},
    });
    return kBlock;
}

// Fault presets. The plan lists its item kinds in key order, as security
// and the overrides list their fields.

const Block<fault::FaultPlan>& fault_plan_block() {
    using B = fault::BurstLossParams;
    using C = fault::NodeCrashParams;
    using S = fault::SensorDropoutParams;
    using D = fault::ClockDriftParams;
    using F = fault::FaultPlan;
    static const Block<B> kBurst(
        {
            {"start_s", number(&B::start_s, 0.0, 1e6)},
            {"end_s", number(&B::end_s, 0.0, 1e18)},
            {"mean_good_s", number(&B::mean_good_s, 1e-3, 1e6)},
            {"mean_bad_s", number(&B::mean_bad_s, 1e-3, 1e6)},
            {"loss_good", number(&B::loss_good, 0.0, 1.0)},
            {"loss_bad", number(&B::loss_bad, 0.0, 1.0)},
        },
        [](const std::string& path, Diag& diag, const B& p) {
            if (p.end_s <= p.start_s)
                diag.fail(path, "end_s must be greater than start_s");
        });
    static const Block<C> kCrash({
        {"vehicle_index", integer(&C::vehicle_index, 0, 63), Need::kRequired},
        {"at_s", number(&C::at_s, 0.0, 1e6)},
        {"down_s", number(&C::down_s, 1e-3, 1e6)},
    });
    static const Block<S> kDropout({
        {"vehicle_index", integer(&S::vehicle_index, 0, 63), Need::kRequired},
        {"start_s", number(&S::start_s, 0.0, 1e6)},
        {"duration_s", number(&S::duration_s, 1e-3, 1e6)},
    });
    static const Block<D> kDrift({
        {"vehicle_index", integer(&D::vehicle_index, 0, 63), Need::kRequired},
        {"start_s", number(&D::start_s, 0.0, 1e6)},
        {"offset_s", number(&D::offset_s, -60.0, 60.0)},
        {"drift_s_per_s", number(&D::drift_s_per_s, -1.0, 1.0)},
    });
    static const Block<F> kBlock(
        {
            {"burst_loss", objects(&F::burst_loss, kBurst)},
            {"clock_drifts", objects(&F::clock_drifts, kDrift)},
            {"crashes", objects(&F::crashes, kCrash)},
            {"sensor_dropouts", objects(&F::sensor_dropouts, kDropout)},
        },
        [](const std::string& path, Diag& diag, const F& plan) {
            if (plan.empty())
                diag.fail(path, "fault preset defines no fault at all");
        });
    return kBlock;
}

void read_presets(const obs::Json& v, const std::string& at, Diag& diag,
                  Top& top) {
    if (!v.is_object()) {
        diag.fail(at, "expected an object");
        return;
    }
    for (const auto& [name, plan] : v.as_object()) {
        // A faults axis names the fault-free slot "none" and every preset
        // "all", so no preset can take either name.
        if (name == "none" || name == "all") {
            diag.fail(at, "'" + name + "' is reserved for the " +
                              (name == "none" ? "fault-free" : "every-preset") +
                              " slot");
            return;
        }
        bind_block(plan, at + "." + name, fault_plan_block(), diag,
                   top.presets[name]);
        if (diag.failed) return;
    }
}

// Grids.

const Block<Grid>& grid_block() {
    const auto attacks = [](const obs::Json& v, const std::string& at,
                            Diag& diag, Axes& axes) {
        if (v.is_null()) {
            diag.fail(at, "required (use [\"all\"] for the full Table II "
                          "catalogue)");
            return;
        }
        axes.attacks = parse_name_axis<core::AttackKind>(
            v, at, attack_names(), attack_from_name,
            [] { return all_attacks(); }, diag);
    };
    const auto attacked = [](const obs::Json& v, const std::string& at,
                             Diag& diag, Axes& axes) {
        axes.attacked = parse_attacked_axis(v, at, diag);
    };
    const auto defenses = [](const obs::Json& v, const std::string& at,
                             Diag& diag, Axes& axes) {
        axes.defenses = parse_name_axis<core::DefenseKind>(
            v, at, defense_names(), defense_from_name,
            [] { return all_defenses(); }, diag);
    };
    const auto faults = [](const obs::Json& v, const std::string& at,
                           Diag& diag, Axes& axes) {
        std::vector<std::string> known{"none"};
        for (const auto& [name, plan] : *axes.presets) known.push_back(name);
        // "all" = every declared preset (not "none").
        axes.faults = parse_name_axis<std::string>(
            v, at, known, listed(known),
            [&] { return std::vector<std::string>(known.begin() + 1,
                                                  known.end()); },
            diag);
    };
    static const Block<Axes> kAxes(
        {
            {"attacks", attacks, Need::kReader},
            {"attacked", attacked},
            {"defenses", defenses},
            {"faults", faults},
        },
        {}, "required object");
    static const Block<Grid> kBlock({
        {"axes", object(&Grid::axes, kAxes), Need::kReader},
        {"seeds", integer(&Grid::seeds, 1, 1000)},
        {"overrides", object(&Grid::config, overrides_block())},
    });
    return kBlock;
}

// -----------------------------------------------------------------------
// Per-cell semantic checks: combinations that parse but cannot mean what
// the author intended.

void check_cell(const CompiledCell& cell, const fault::FaultPlan& plan,
                const std::string& path, Diag& diag) {
    const security::SecurityPolicy& sec = cell.config.security;
    if (sec.encrypt_payloads && sec.auth_mode == crypto::AuthMode::kNone) {
        diag.fail(path,
                  "incompatible combination: security.encrypt_payloads with "
                  "auth_mode 'none' (encrypt-only -- a jammer or replayer "
                  "passes unauthenticated); set security.auth_mode or use "
                  "the 'secret-and-public-keys' defense");
        return;
    }
    if (!plan.clock_drifts.empty() &&
        sec.auth_mode == crypto::AuthMode::kNone) {
        diag.fail(path,
                  "incompatible combination: fault '" + cell.fault +
                      "' injects clock drift, but auth_mode 'none' never "
                      "checks timestamps, so the fault is a no-op; add "
                      "overrides.security.auth_mode (e.g. \"signature\")");
        return;
    }
    const auto check_index = [&](std::size_t index, const char* kind) {
        if (index >= cell.config.platoon_size) {
            diag.fail(path, "fault '" + cell.fault + "': " + kind +
                                " vehicle_index " + std::to_string(index) +
                                " out of range for platoon_size " +
                                std::to_string(cell.config.platoon_size));
        }
    };
    for (const auto& c : plan.crashes) check_index(c.vehicle_index, "crash");
    for (const auto& d : plan.sensor_dropouts)
        check_index(d.vehicle_index, "sensor-dropout");
    for (const auto& d : plan.clock_drifts)
        check_index(d.vehicle_index, "clock-drift");
    if (diag.failed) return;

    // Corridor events must point at platoons/vehicles/RSUs that exist once
    // every override has been merged.
    const std::size_t platoon_count = 1 + cell.config.extra_platoons.size();
    for (std::size_t i = 0; i < cell.config.corridor.size(); ++i) {
        const core::CorridorEvent& event = cell.config.corridor[i];
        const std::string at = path + " corridor[" + std::to_string(i) + "]";
        if (event.platoon >= platoon_count) {
            diag.fail(at, "platoon " + std::to_string(event.platoon) +
                              " out of range: the corridor has " +
                              std::to_string(platoon_count) +
                              " platoon(s) (0 = primary; add 'platoons' "
                              "overrides for more)");
            return;
        }
        using Kind = core::CorridorEvent::Kind;
        if (event.kind == Kind::kMerge && event.platoon == 0) {
            diag.fail(at, "the primary platoon cannot merge into itself; "
                          "pick an extra platoon (1..)");
            return;
        }
        if (event.kind == Kind::kSplit || event.kind == Kind::kCutIn) {
            const std::size_t size =
                event.platoon == 0
                    ? cell.config.platoon_size
                    : cell.config.extra_platoons[event.platoon - 1].size;
            if (event.index >= size) {
                diag.fail(at, "index " + std::to_string(event.index) +
                                  " out of range for platoon " +
                                  std::to_string(event.platoon) + " of size " +
                                  std::to_string(size));
                return;
            }
        }
        if (event.kind == Kind::kRsuHandoff &&
            event.index >= cell.config.rsu_count) {
            diag.fail(at, "rsu-handoff to RSU " + std::to_string(event.index) +
                              " but rsu_count is " +
                              std::to_string(cell.config.rsu_count) +
                              "; raise overrides.rsu_count");
            return;
        }
    }
}

/// Appends a bound grid's cells in the pinned order (defenses -> faults ->
/// attacks -> attacked, each axis as declared), each a copy of the grid's
/// config with the cell's defense and fault preset on top.
void expand(const Grid& grid, std::size_t g, const std::string& path,
            Top& top, Diag& diag) {
    for (const core::DefenseKind defense : grid.axes.defenses) {
        for (const std::string& fault_name : grid.axes.faults) {
            const fault::FaultPlan plan = fault_name == "none"
                                              ? fault::FaultPlan{}
                                              : top.presets.at(fault_name);
            for (const core::AttackKind attack : grid.axes.attacks) {
                for (const bool with_attack : grid.axes.attacked) {
                    CompiledCell cell{grid.config, attack,     with_attack,
                                      defense,     fault_name, grid.seeds,
                                      g};
                    scen::apply_defense(cell.config, defense);
                    cell.config.faults = plan;
                    check_cell(cell, plan, path, diag);
                    if (diag.failed) return;
                    top.cells.push_back(std::move(cell));
                }
            }
        }
    }
}

/// The profile's config, which the top-level overrides edit. Built on first
/// use, by which point table order has read `profile` and `seed`.
Layer& base_config(Top& top) {
    if (!top.base)
        top.base = Layer{*base_profile(top.profile, top.seed), &top.stealth};
    return *top.base;
}

void read_grids(const obs::Json& v, const std::string& at, Diag& diag,
                Top& top) {
    if (!v.is_array() || v.as_array().empty()) {
        diag.fail(at, "required non-empty array");
        return;
    }
    const obs::Json::Array& grids = v.as_array();
    top.grid_count = grids.size();
    for (std::size_t g = 0; g < grids.size(); ++g) {
        const std::string path = at + "[" + std::to_string(g) + "]";
        Grid grid{Axes{}, top.seeds, base_config(top)};
        grid.axes.presets = &top.presets;
        grid.config.stealth = nullptr;
        bind_block(grids[g], path, grid_block(), diag, grid);
        if (diag.failed) return;
        expand(grid, g, path, top, diag);
        if (diag.failed) return;
    }
}

const Block<Top>& top_block() {
    const auto name = [](const obs::Json& v, const std::string& at,
                         Diag& diag, Top& top) {
        if (!v.is_string() || v.as_string().empty())
            diag.fail(at, "required non-empty string");
        else
            top.name = v.as_string();
    };
    const auto profile = [](const std::string& name) {
        return base_profile(name, /*seed=*/0) ? std::optional(name)
                                              : std::nullopt;
    };
    const auto overrides = [](const obs::Json& v, const std::string& at,
                              Diag& diag, Top& top) {
        bind_block(v, at, overrides_block(), diag, base_config(top));
    };
    static const Block<Top> kBlock(
        {
            {"name", name, Need::kReader},
            {"title", text(&Description::title)},
            {"profile", choice(&Description::profile, "profile", profile,
                               profile_names)},
            {"seed", integer(&Description::seed, 0,
                             std::numeric_limits<std::int64_t>::max())},
            {"seeds", integer(&Top::seeds, 1, 1000)},
            {"fault_presets", read_presets},
            {"overrides", overrides},
            {"grids", read_grids, Need::kReader},
        },
        // The stealth block names a victim by platoon index; every compiled
        // cell must actually contain that member once overrides merge.
        [](const std::string&, Diag& diag, const Top& top) {
            if (!top.stealth) return;
            for (const CompiledCell& cell : top.cells) {
                if (top.stealth->victim_index < cell.config.platoon_size)
                    continue;
                diag.fail("overrides.stealth.victim_index",
                          "victim_index " +
                              std::to_string(top.stealth->victim_index) +
                              " out of range for platoon_size " +
                              std::to_string(cell.config.platoon_size));
                return;
            }
        },
        "expected a top-level object");
    return kBlock;
}

}  // namespace

std::vector<std::string> stealth_injection_names() {
    // Mirrors security::stealth::injection_names() (scen sits below
    // security in the layering DAG, so the list cannot be included); the
    // scen test suite pins the two lists equal.
    return {"gps-spoof", "sensor-spoof", "fake-maneuver"};
}

std::string coverage_key(core::AttackKind attack, core::DefenseKind defense,
                         std::string_view fault) {
    std::string key = core::to_string(attack);
    key += '|';
    key += defense_name(defense);
    key += '|';
    key += fault;
    return key;
}

std::string CompiledCell::coverage_key() const {
    return scen::coverage_key(attack, defense, fault);
}

std::optional<Compiled> compile(const obs::Json& doc, std::string* error) {
    Diag diag;
    Top top;
    bind_block(doc, "$", top_block(), diag, top);
    if (diag.failed) {
        if (error != nullptr) *error = diag.message;
        return std::nullopt;
    }
    return Compiled{top, std::move(top.cells), std::move(top.stealth)};
}

std::optional<Compiled> compile_file(const std::string& path,
                                     std::string* error) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr) *error = path + ": cannot open file";
        return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::optional<obs::Json> doc = obs::Json::parse(buffer.str());
    if (!doc) {
        if (error != nullptr)
            *error = path + ": not valid JSON (truncated input, a bad "
                            "escape, a duplicate key, or nesting beyond the "
                            "parser's depth limit)";
        return std::nullopt;
    }
    std::string inner;
    std::optional<Compiled> compiled = compile(*doc, &inner);
    if (!compiled && error != nullptr) *error = path + ": " + inner;
    return compiled;
}

const CompiledCell* find_cell(const std::vector<CompiledCell>& cells,
                              core::AttackKind attack, bool with_attack,
                              core::DefenseKind defense,
                              std::string_view fault) {
    for (const CompiledCell& cell : cells) {
        if (cell.attack == attack && cell.with_attack == with_attack &&
            cell.defense == defense && cell.fault == fault)
            return &cell;
    }
    return nullptr;
}

}  // namespace platoon::scen
