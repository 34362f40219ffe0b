// obs::Json::dump refuses keys and strings that are not valid UTF-8, so no
// bench artifact can be written that a strict reader (Python's json, a
// browser) rejects; and every committed baseline must already be such an
// artifact.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"

using platoon::obs::Json;
using platoon::obs::valid_utf8;

namespace {

/// The message dump() throws with, or "" when it does not throw.
std::string dump_error(const Json& doc) {
    try {
        (void)doc.dump();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

}  // namespace

TEST(JsonUtf8, WellFormedSequencesAreAccepted) {
    for (const char* s :
         {"", "ascii", "\xC3\xA9", "\xE2\x82\xAC", "\xF0\x9F\x98\x80",
          "\xED\x9F\xBF" /* U+D7FF */, "\xEE\x80\x80" /* U+E000 */,
          "\xF4\x8F\xBF\xBF" /* U+10FFFF */, "\x01\x1F\x7F"}) {
        EXPECT_TRUE(valid_utf8(s)) << s;
    }
}

TEST(JsonUtf8, MalformedSequencesAreRejected) {
    for (const char* s : {
             "\x80",              // stray continuation byte
             "\xBF",              // stray continuation byte
             "\xC0\xAF",          // overlong '/'
             "\xC1\xBF",          // overlong
             "\xE0\x80\xAF",      // overlong 3-byte
             "\xF0\x8F\xBF\xBF",  // overlong 4-byte
             "\xED\xA0\x80",      // surrogate U+D800
             "\xED\xBF\xBF",      // surrogate U+DFFF
             "\xF4\x90\x80\x80",  // U+110000
             "\xF5\x80\x80\x80",  // lead byte past U+10FFFF
             "\xFF",              // never valid
             "\xE2\x82",          // truncated
             "a\xC3",             // truncated at the end
             "\xC3\x28",          // bad continuation
         }) {
        EXPECT_FALSE(valid_utf8(s)) << ::testing::PrintToString(s);
    }
}

TEST(JsonUtf8, DumpRoundTripsMultibyteText) {
    Json doc = Json::object();
    doc.set("caf\xC3\xA9", Json::string("\xE2\x82\xAC 5 \xF0\x9F\x9A\x9A"));
    const auto again = Json::parse(doc.dump());
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(*again == doc);
}

TEST(JsonUtf8, InvalidKeyThrowsNamingItsParentPath) {
    Json timers = Json::object();
    timers.set("ok", Json::integer(1));
    timers.set(std::string("\x10\xFF\x60/bench_scale.run_once"),
               Json::integer(2));
    Json doc = Json::object();
    Json block = Json::object();
    block.set("timers", std::move(timers));
    doc.set("timings_nondeterministic", std::move(block));
    const std::string error = dump_error(doc);
    EXPECT_NE(error.find("object key"), std::string::npos) << error;
    EXPECT_NE(error.find("\"/timings_nondeterministic/timers\""),
              std::string::npos)
        << error;
    EXPECT_TRUE(valid_utf8(error));
}

TEST(JsonUtf8, InvalidStringThrowsNamingItsPath) {
    Json list = Json::array();
    list.as_array().push_back(Json::string("fine"));
    list.as_array().push_back(Json::string("bad \xC0\xAF"));
    Json doc = Json::object();
    doc.set("a/b~c", std::move(list));
    const std::string error = dump_error(doc);
    // JSON Pointer escaping: "/" -> "~1", "~" -> "~0".
    EXPECT_NE(error.find("string is not valid UTF-8 at \"/a~1b~0c/1\""),
              std::string::npos)
        << error;
    EXPECT_EQ(dump_error(Json::string("\xED\xA0\x80")),
              "obs::Json::dump: string is not valid UTF-8 at \"\"");
}

TEST(JsonUtf8, EveryCommittedBaselineParsesAndIsValidUtf8) {
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(PLATOON_BASELINE_DIR)) {
        if (entry.path().extension() == ".json") files.push_back(entry.path());
    }
    ASSERT_FALSE(files.empty());
    for (const auto& file : files) {
        std::ifstream in(file, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        EXPECT_TRUE(valid_utf8(text.str())) << file;
        const auto doc = Json::parse(text.str());
        ASSERT_TRUE(doc.has_value()) << file;
        // \u escapes decode to code points, so the parsed keys and strings
        // must pass dump's check too.
        EXPECT_EQ(dump_error(*doc), "") << file;
    }
}
