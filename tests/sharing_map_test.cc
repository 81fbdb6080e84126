/**
 * @file
 * End-to-end check of scripts/analyze_sharing.py: the analyzer must
 * run clean over the real src/ tree and the sharing map it emits must
 * be a well-formed garibaldi-sharing-map-v1 document covering every
 * boundary class with valid classifications.
 *
 * The shell fixture lane (tests/lint_fixtures/sharing/) pins the
 * analyzer's *rules*; this test pins the *map artifact* that ci.sh
 * archives into BENCH_correctness.json, parsing it with the same
 * JsonValue parser the sweep engine trusts.
 *
 * Needs REPO_ROOT in the environment (ctest sets it); skips when the
 * analyzer cannot run (no python3).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/json.hh"

using garibaldi::JsonValue;

namespace
{

const char *
repoRoot()
{
    return std::getenv("REPO_ROOT");
}

bool
havePython()
{
    return std::system("python3 -c 'import sys' >/dev/null 2>&1") == 0;
}

/// The classification vocabulary of src/common/sharing.hh.
const std::set<std::string> &
validClassifications()
{
    static const std::set<std::string> kinds = {
        "per-worker", "shared-const", "shared-sync",
        "guarded",    "epoch-merged", "capability",
    };
    return kinds;
}

class SharingMapTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (repoRoot() == nullptr)
            GTEST_SKIP() << "REPO_ROOT not set; run under ctest";
        if (!havePython())
            GTEST_SKIP() << "python3 unavailable";

        mapPath = "sharing_map_test_out.json";
        std::string cmd = std::string("python3 '") + repoRoot() +
                          "/scripts/analyze_sharing.py' --emit '" +
                          mapPath + "' '" + repoRoot() + "/src'";
        analyzerStatus = std::system(cmd.c_str());
    }

    void
    TearDown() override
    {
        if (!mapPath.empty())
            std::remove(mapPath.c_str());
    }

    JsonValue
    loadMap() const
    {
        std::ifstream in(mapPath);
        EXPECT_TRUE(in.good()) << "--emit produced no map at " << mapPath;
        std::ostringstream ss;
        ss << in.rdbuf();
        return JsonValue::parse(ss.str());
    }

    std::string mapPath;
    int analyzerStatus = -1;
};

TEST_F(SharingMapTest, SrcTreeIsFindingFree)
{
    EXPECT_EQ(analyzerStatus, 0)
        << "analyze_sharing.py reported findings over src/";
}

TEST_F(SharingMapTest, MapCoversEveryBoundaryClass)
{
    ASSERT_EQ(analyzerStatus, 0);
    JsonValue doc = loadMap();

    ASSERT_TRUE(doc.has("schema"));
    EXPECT_EQ(doc.get("schema").asString(), "garibaldi-sharing-map-v1");

    ASSERT_TRUE(doc.has("boundary_classes"));
    ASSERT_TRUE(doc.has("classes"));
    const JsonValue &boundary = doc.get("boundary_classes");
    const JsonValue &classes = doc.get("classes");
    ASSERT_GT(boundary.size(), 0u);

    // The shard-boundary roster the parallelism PR will consume; a
    // rename that drops one of these must fail loudly here.
    for (const char *name :
         {"Cache", "Dram", "ExperimentContext", "Garibaldi",
          "LlcBankSet", "MemoryHierarchy", "System", "ThreadPool"}) {
        bool listed = false;
        for (std::size_t i = 0; i < boundary.size(); ++i)
            listed = listed || boundary.at(i).asString() == name;
        EXPECT_TRUE(listed) << name << " missing from boundary_classes";
    }

    for (std::size_t i = 0; i < boundary.size(); ++i) {
        const std::string &name = boundary.at(i).asString();
        ASSERT_TRUE(classes.has(name))
            << "boundary class " << name << " absent from the map";
        const JsonValue &cls = classes.get(name);
        ASSERT_TRUE(cls.has("file")) << name;
        ASSERT_TRUE(cls.has("members")) << name;
        EXPECT_NE(cls.get("file").asString().find("src/"),
                  std::string::npos)
            << name << " must live under src/";
    }
}

TEST_F(SharingMapTest, EveryMemberHasAValidClassification)
{
    ASSERT_EQ(analyzerStatus, 0);
    JsonValue doc = loadMap();
    const JsonValue &classes = doc.get("classes");

    std::size_t members = 0;
    for (const auto &kv : classes.members()) {
        for (const auto &mem : kv.second.get("members").members()) {
            ++members;
            ASSERT_TRUE(mem.second.has("classification"))
                << kv.first << "::" << mem.first;
            const std::string &c =
                mem.second.get("classification").asString();
            if (c == "waived")
                continue; // justified escape hatch, counted below
            EXPECT_EQ(validClassifications().count(c), 1u)
                << kv.first << "::" << mem.first << " has unknown "
                << "classification '" << c << "'";
            if (c == "guarded") {
                EXPECT_TRUE(mem.second.has("guard"))
                    << kv.first << "::" << mem.first;
            }
            if (c == "epoch-merged") {
                EXPECT_TRUE(mem.second.has("merge"))
                    << kv.first << "::" << mem.first;
            }
        }
    }
    // The hierarchy's boundary classes are not empty shells.
    EXPECT_GE(members, 40u);

    // Every waiver carries a justification (the analyzer rejects bare
    // allows, so this is belt-and-braces on the archived artifact).
    ASSERT_TRUE(doc.has("waivers"));
    const JsonValue &waivers = doc.get("waivers");
    for (std::size_t i = 0; i < waivers.size(); ++i) {
        const JsonValue &w = waivers.at(i);
        ASSERT_TRUE(w.has("justification"));
        EXPECT_FALSE(w.get("justification").asString().empty());
    }
}

} // namespace
