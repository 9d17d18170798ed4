// The serving subsystem: wire protocol (parser hardening + exact
// round-trips), SessionManager semantics without sockets, and the TCP
// daemon with them — including the kill-client-mid-session and
// write-failure paths that motivate the connection/session split.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fault_injection.h"
#include "core/session_state.h"
#include "oracle/simulated_expert.h"
#include "server/daemon.h"
#include "server/line_client.h"
#include "server/protocol.h"
#include "server/session_manager.h"
#include "test_util.h"

namespace uguide {
namespace {

using ::uguide::testing::MakeHospitalSession;

// Every counter SessionManager::HandleHealth copies into HealthInfo has its
// field's exact type, so a served counter can neither overflow nor be
// truncated before the 64-bit health frame is full.
template <typename Stats, typename Counter, typename Field>
constexpr bool SameType(Counter Stats::*, Field HealthInfo::*) {
  return std::is_same_v<Counter, Field>;
}
static_assert(SameType(&SessionManagerStats::opened, &HealthInfo::opened));
static_assert(SameType(&SessionManagerStats::finished, &HealthInfo::finished));
static_assert(SameType(&SessionManagerStats::evicted, &HealthInfo::evicted));
static_assert(SameType(&SessionManagerStats::refused, &HealthInfo::refused));
static_assert(SameType(&SessionManagerStats::storage_failed,
                       &HealthInfo::storage_failed));
static_assert(SameType(&JournalRecoveryStats::resumable,
                       &HealthInfo::journals_resumable));
static_assert(SameType(&JournalRecoveryStats::finished,
                       &HealthInfo::journals_finished));
static_assert(SameType(&JournalRecoveryStats::quarantined,
                       &HealthInfo::journals_quarantined));
static_assert(SameType(&JournalRecoveryStats::gced,
                       &HealthInfo::journals_gced));
static_assert(SameType(&AdmissionStats::rate_limited,
                       &HealthInfo::rate_limited));
static_assert(SameType(&AdmissionStats::deadline_shed,
                       &HealthInfo::deadline_shed));
static_assert(SameType(&AdmissionStats::brownout_refused,
                       &HealthInfo::brownout_refused));
static_assert(SameType(&AdmissionStats::brownout_shed,
                       &HealthInfo::brownout_shed));

// --- JSON parser ------------------------------------------------------------

TEST(JsonValueTest, ParsesScalarsAndContainers) {
  JsonValue v = JsonValue::Parse(
                    " {\"a\": 1, \"b\": [true, null, -2.5], \"c\": \"x\"} ")
                    .ValueOrDie();
  ASSERT_TRUE(v.is_object());
  ASSERT_NE(v.Get("a"), nullptr);
  EXPECT_EQ(v.GetInt("a", 0).ValueOrDie(), 1);
  const JsonValue* b = v.Get("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array_items().size(), 3u);
  EXPECT_TRUE(b->array_items()[0].bool_value());
  EXPECT_EQ(b->array_items()[2].number_value(), -2.5);
  EXPECT_EQ(v.GetString("c", true).ValueOrDie(), "x");
  EXPECT_EQ(v.Get("missing"), nullptr);
}

TEST(JsonValueTest, QuotedBytesRoundTrip) {
  // Non-ASCII bytes pass through raw: escaping them one by one as \u00XX
  // would decode to different code points (and different UTF-8).
  const std::string text = "a\n\x01\x7f\xc3\xa9\xf0\x9f\x98\x80\xff\"\\";
  EXPECT_EQ(JsonQuote(text),
            "\"a\\n\\u0001\\u007f\xc3\xa9\xf0\x9f\x98\x80\xff\\\"\\\\\"");
  EXPECT_EQ(JsonValue::Parse(JsonQuote(text)).ValueOrDie().string_value(),
            text);
}

TEST(JsonValueTest, Int64GetterIsExactUpTo2To53) {
  JsonValue v = JsonValue::Parse(
                    R"({"big":3000000000,"neg":-3000000000,)"
                    R"("edge":9007199254740992,"past":9007199254740994,)"
                    R"("frac":1.5,"text":"1"})")
                    .ValueOrDie();
  EXPECT_EQ(v.GetInt64("big", 0).ValueOrDie(), 3000000000);
  EXPECT_EQ(v.GetInt64("neg", 0).ValueOrDie(), -3000000000);
  EXPECT_EQ(v.GetInt64("edge", 0).ValueOrDie(), int64_t{1} << 53);
  EXPECT_EQ(v.GetInt64("absent", 7).ValueOrDie(), 7);
  EXPECT_FALSE(v.GetInt64("past", 0).ok());
  EXPECT_FALSE(v.GetInt64("frac", 0).ok());
  EXPECT_FALSE(v.GetInt64("text", 0).ok());
  // The int getter still refuses what only fits 64 bits.
  EXPECT_FALSE(v.GetInt("big", 0).ok());
}

TEST(JsonValueTest, DecodesEscapesAndSurrogatePairs) {
  JsonValue v =
      JsonValue::Parse("\"\\u0041\\n\\\"\\\\\\uD83D\\uDE00\"").ValueOrDie();
  EXPECT_EQ(v.string_value(), "A\n\"\\\xF0\x9F\x98\x80");
  // An embedded NUL survives as a real byte.
  JsonValue nul = JsonValue::Parse("\"a\\u0000b\"").ValueOrDie();
  EXPECT_EQ(nul.string_value(), std::string("a\0b", 3));
}

TEST(JsonValueTest, RejectsHostileInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("{} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(JsonValue::Parse("\"\\uD83D\"").ok());  // lone surrogate
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
  // Depth bound: kMaxDepth nested containers parse (the innermost value
  // may sit at depth kMaxDepth itself), two levels past that do not.
  std::string deep(JsonValue::kMaxDepth, '[');
  deep += std::string(JsonValue::kMaxDepth, ']');
  EXPECT_TRUE(JsonValue::Parse(deep).ok());
  std::string deeper = "[[" + deep + "]]";
  EXPECT_FALSE(JsonValue::Parse(deeper).ok());
  // Size bound: a >1 MiB frame is refused before allocation balloons.
  std::string huge = "\"" + std::string((1 << 20) + 16, 'x') + "\"";
  EXPECT_FALSE(JsonValue::Parse(huge).ok());
}

TEST(HexFloatTest, RoundTripsExactly) {
  for (double value : {0.0, 1.0, -1.0, 0.1, 12.0, 1e300, 5e-324,
                       1.0 / 3.0, 123456.789}) {
    EXPECT_EQ(ParseHexFloat(HexFloat(value)).ValueOrDie(), value);
  }
  EXPECT_EQ(ParseHexFloat("0x1.8p+3").ValueOrDie(), 12.0);
  EXPECT_FALSE(ParseHexFloat("").ok());
  EXPECT_FALSE(ParseHexFloat("0x1p+2 junk").ok());
}

// --- Frame round-trips ------------------------------------------------------

TEST(ClientFrameTest, RoundTripsEveryOp) {
  ClientFrame open;
  open.op = ClientOp::kOpen;
  open.id = "s-1.a_B";
  open.strategy = "FDQ-BMC";
  open.budget = 64.25;
  open.has_budget = true;
  open.resume = true;
  EXPECT_EQ(FormatClientFrame(open),
            R"({"op":"open","id":"s-1.a_B","strategy":"FDQ-BMC",)"
            R"("budget":"0x1.01p+6","resume":true})");
  ClientFrame parsed = ParseClientFrame(FormatClientFrame(open)).ValueOrDie();
  EXPECT_EQ(parsed.op, ClientOp::kOpen);
  EXPECT_EQ(parsed.id, open.id);
  EXPECT_EQ(parsed.strategy, open.strategy);
  EXPECT_TRUE(parsed.has_budget);
  EXPECT_EQ(parsed.budget, open.budget);  // hexfloat: bit-exact
  EXPECT_TRUE(parsed.resume);

  ClientFrame answer;
  answer.op = ClientOp::kAnswer;
  answer.id = "s1";
  answer.seq = 7;
  answer.answer = Answer::kNo;
  answer.retry_cost = 0.375;
  answer.exhausted = true;
  EXPECT_EQ(FormatClientFrame(answer),
            R"({"op":"answer","id":"s1","seq":7,"answer":"no",)"
            R"("retry_cost":"0x1.8p-2","exhausted":true})");
  parsed = ParseClientFrame(FormatClientFrame(answer)).ValueOrDie();
  EXPECT_EQ(parsed.op, ClientOp::kAnswer);
  EXPECT_EQ(parsed.seq, 7);
  EXPECT_EQ(parsed.answer, Answer::kNo);
  EXPECT_EQ(parsed.retry_cost, 0.375);
  EXPECT_TRUE(parsed.exhausted);

  for (ClientOp op : {ClientOp::kNext, ClientOp::kClose, ClientOp::kPing}) {
    ClientFrame f;
    f.op = op;
    f.id = "x";
    EXPECT_EQ(ParseClientFrame(FormatClientFrame(f)).ValueOrDie().op, op);
  }
  ClientFrame next;
  next.op = ClientOp::kNext;
  next.id = "x";
  EXPECT_EQ(FormatClientFrame(next), R"({"op":"next","id":"x"})");
  ClientFrame close;
  close.op = ClientOp::kClose;
  close.id = "x";
  EXPECT_EQ(FormatClientFrame(close), R"({"op":"close","id":"x"})");
  ClientFrame ping;
  ping.op = ClientOp::kPing;
  EXPECT_EQ(FormatClientFrame(ping), R"({"op":"ping"})");
  ClientFrame health;
  health.op = ClientOp::kHealth;
  EXPECT_EQ(FormatClientFrame(health), R"({"op":"health"})");
  EXPECT_EQ(ParseClientFrame(FormatClientFrame(health)).ValueOrDie().op,
            ClientOp::kHealth);

  ClientFrame mutate;
  mutate.op = ClientOp::kMutate;
  mutate.id = "m1";
  mutate.mutations = {Mutation::Append({"a", "b\"c"}),
                      Mutation::Update(7, 2, "x"), Mutation::Delete(4)};
  EXPECT_EQ(FormatClientFrame(mutate),
            R"({"op":"mutate","id":"m1","ops":[)"
            R"({"kind":"append","values":["a","b\"c"]},)"
            R"({"kind":"update","row":7,"col":2,"value":"x"},)"
            R"({"kind":"delete","row":4}]})");
  parsed = ParseClientFrame(FormatClientFrame(mutate)).ValueOrDie();
  EXPECT_EQ(parsed.op, ClientOp::kMutate);
  EXPECT_EQ(parsed.id, "m1");
  ASSERT_EQ(parsed.mutations.size(), 3u);
  EXPECT_EQ(parsed.mutations[0].kind, MutationKind::kAppend);
  EXPECT_EQ(parsed.mutations[0].values, mutate.mutations[0].values);
  EXPECT_EQ(parsed.mutations[1].kind, MutationKind::kUpdate);
  EXPECT_EQ(parsed.mutations[1].row, 7);
  EXPECT_EQ(parsed.mutations[1].col, 2);
  EXPECT_EQ(parsed.mutations[1].value, "x");
  EXPECT_EQ(parsed.mutations[2].kind, MutationKind::kDelete);
  EXPECT_EQ(parsed.mutations[2].row, 4);
}

TEST(ClientFrameTest, RejectsMalformedFrames) {
  EXPECT_FALSE(ParseClientFrame("not json").ok());
  EXPECT_FALSE(ParseClientFrame("[1,2]").ok());
  EXPECT_FALSE(ParseClientFrame("{\"op\":\"explode\"}").ok());
  EXPECT_FALSE(ParseClientFrame("{\"op\":\"open\"}").ok());  // missing id
  EXPECT_FALSE(
      ParseClientFrame("{\"op\":\"answer\",\"id\":\"s\",\"seq\":-1,"
                       "\"answer\":\"yes\"}")
          .ok());
  EXPECT_FALSE(
      ParseClientFrame("{\"op\":\"answer\",\"id\":\"s\",\"seq\":0,"
                       "\"answer\":\"maybe\"}")
          .ok());
  // Hexfloat tokens are canonical: no leading whitespace or '+', which
  // HexFloat never writes.
  EXPECT_FALSE(ParseClientFrame(R"({"op":"open","id":"s","strategy":"x",)"
                                R"("budget":" 0x1p+3"})")
                   .ok());
  EXPECT_FALSE(ParseClientFrame(R"({"op":"open","id":"s","strategy":"x",)"
                                R"("budget":"+0x1p+3"})")
                   .ok());
  EXPECT_FALSE(ParseClientFrame(R"({"op":"answer","id":"s","seq":0,)"
                                R"("answer":"yes","retry_cost":"\t0x1p+0"})")
                   .ok());
  EXPECT_TRUE(ParseClientFrame(R"({"op":"open","id":"s","strategy":"x",)"
                               R"("budget":"0x1p+3"})")
                  .ok());
}

TEST(ServerFrameTest, QuestionFramesRoundTripAllKinds) {
  SessionQuestion cell;
  cell.kind = QuestionKind::kCell;
  cell.cell = Cell{42, 3};
  cell.index = 9;
  cell.replayed = true;
  cell.nominal_cost = 1.5;
  EXPECT_EQ(FormatQuestionFrame("s1", cell),
            R"({"type":"question","id":"s1","seq":9,"kind":"cell",)"
            R"("row":42,"col":3,"cost":"0x1.8p+0","replayed":true})");
  ServerFrame parsed =
      ParseServerFrame(FormatQuestionFrame("s1", cell)).ValueOrDie();
  ASSERT_EQ(parsed.type, ServerFrameType::kQuestion);
  EXPECT_EQ(parsed.id, "s1");
  EXPECT_EQ(parsed.question.kind, QuestionKind::kCell);
  EXPECT_EQ(parsed.question.cell, (Cell{42, 3}));
  EXPECT_EQ(parsed.question.index, 9);
  EXPECT_TRUE(parsed.question.replayed);
  EXPECT_EQ(parsed.question.nominal_cost, 1.5);

  SessionQuestion tuple;
  tuple.kind = QuestionKind::kTuple;
  tuple.row = 1234;
  tuple.index = 0;
  tuple.nominal_cost = 3.25;
  EXPECT_EQ(FormatQuestionFrame("s2", tuple),
            R"({"type":"question","id":"s2","seq":0,"kind":"tuple",)"
            R"("row":1234,"cost":"0x1.ap+1"})");
  parsed = ParseServerFrame(FormatQuestionFrame("s2", tuple)).ValueOrDie();
  EXPECT_EQ(parsed.question.kind, QuestionKind::kTuple);
  EXPECT_EQ(parsed.question.row, 1234);

  SessionQuestion fd;
  fd.kind = QuestionKind::kFd;
  fd.fd = Fd(AttributeSet({0, 5}), 7);
  fd.index = 2;
  fd.nominal_cost = 10.0;
  EXPECT_EQ(FormatQuestionFrame("s3", fd),
            R"({"type":"question","id":"s3","seq":2,"kind":"fd",)"
            R"("lhs":"21","rhs":7,"cost":"0x1.4p+3"})");
  parsed = ParseServerFrame(FormatQuestionFrame("s3", fd)).ValueOrDie();
  EXPECT_EQ(parsed.question.kind, QuestionKind::kFd);
  EXPECT_EQ(parsed.question.fd, fd.fd);

  // Masks are canonical lowercase hex, and col/rhs are attribute indices.
  const std::string fd_prefix =
      R"({"type":"question","id":"s1","seq":0,"kind":"fd","lhs":)";
  const std::string fd_suffix = R"(,"rhs":2,"cost":"0x1p+0"})";
  EXPECT_TRUE(ParseServerFrame(fd_prefix + R"("3")" + fd_suffix).ok());
  for (const char* lhs : {R"("-1")", R"("+3")", R"(" 3")", R"("0x3")",
                          R"("3F")", R"("")", R"("11111111111111111")"}) {
    EXPECT_FALSE(ParseServerFrame(fd_prefix + lhs + fd_suffix).ok()) << lhs;
  }
  EXPECT_FALSE(ParseServerFrame(R"({"type":"question","id":"s1","seq":0,)"
                                R"("kind":"fd","lhs":"3","rhs":64,)"
                                R"("cost":"0x1p+0"})")
                   .ok());
  for (int col : {64, 900}) {
    EXPECT_FALSE(ParseServerFrame(R"({"type":"question","id":"s1","seq":0,)"
                                  R"("kind":"cell","row":1,"col":)" +
                                  std::to_string(col) +
                                  R"(,"cost":"0x1p+0"})")
                     .ok())
        << col;
  }
}

TEST(ServerFrameTest, ErrorAndControlFramesRoundTrip) {
  EXPECT_EQ(FormatErrorFrame("s1", Status::NotFound("no such \"session\"")),
            R"({"type":"error","id":"s1","code":"not_found","status":3,)"
            R"("message":"no such \"session\""})");
  EXPECT_EQ(FormatErrorFrame("", Status::ResourceExhausted("busy"),
                             error_code::kOverloaded, 200),
            R"({"type":"error","code":"overloaded","status":9,)"
            R"("retry_after_ms":200,"message":"busy"})");
  ServerFrame error =
      ParseServerFrame(
          FormatErrorFrame("s1", Status::NotFound("no such \"session\"")))
          .ValueOrDie();
  ASSERT_EQ(error.type, ServerFrameType::kError);
  EXPECT_EQ(error.code, static_cast<int>(StatusCode::kNotFound));
  EXPECT_NE(error.message.find("no such \"session\""), std::string::npos);

  EXPECT_EQ(FormatClosedFrame("s1"), R"({"type":"closed","id":"s1"})");
  EXPECT_EQ(FormatPongFrame(), R"({"type":"pong"})");
  EXPECT_EQ(ParseServerFrame(FormatClosedFrame("s1")).ValueOrDie().type,
            ServerFrameType::kClosed);
  EXPECT_EQ(ParseServerFrame(FormatPongFrame()).ValueOrDie().type,
            ServerFrameType::kPong);

  EXPECT_EQ(FormatMutatedFrame("m1", 4, 3, 1),
            R"({"type":"mutated","id":"m1","version":4,"applied":3,)"
            R"("refused":1})");
  ServerFrame mutated =
      ParseServerFrame(FormatMutatedFrame("m1", 4, 3, 1)).ValueOrDie();
  ASSERT_EQ(mutated.type, ServerFrameType::kMutated);
  EXPECT_EQ(mutated.version, 4u);
  EXPECT_EQ(mutated.applied, 3);
  EXPECT_EQ(mutated.refused, 1);
  // The parser reads every 64-bit field the daemon writes, not just the
  // int-sized ones.
  EXPECT_EQ(ParseServerFrame(FormatMutatedFrame("m1", 3000000000, 1, 0))
                .ValueOrDie()
                .version,
            3000000000u);

  HealthInfo health;
  health.brownout = 1;
  health.active_sessions = 2;
  health.active_connections = 3;
  health.opened = 4;
  health.finished = 5;
  health.evicted = 6;
  health.refused = 7;
  health.rate_limited = 8;
  health.deadline_shed = 9;
  health.brownout_refused = 10;
  health.brownout_shed = 11;
  health.accepted = 12;
  health.dropped = 13;
  health.dropped_slow_reader = 14;
  health.reaped_idle = 15;
  health.journals_resumable = 16;
  health.journals_finished = 17;
  health.journals_quarantined = 18;
  health.journals_gced = 19;
  health.storage_failed = 20;
  EXPECT_EQ(FormatHealthFrame(health),
            R"({"type":"health","brownout":1,"active_sessions":2,)"
            R"("active_connections":3,"opened":4,"finished":5,"evicted":6,)"
            R"("refused":7,"rate_limited":8,"deadline_shed":9,)"
            R"("brownout_refused":10,"brownout_shed":11,"accepted":12,)"
            R"("dropped":13,"dropped_slow_reader":14,"reaped_idle":15,)"
            R"("journals_resumable":16,"journals_finished":17,)"
            R"("journals_quarantined":18,"journals_gced":19,)"
            R"("storage_failed":20})");
  const HealthInfo parsed_health =
      ParseServerFrame(FormatHealthFrame(health)).ValueOrDie().health;
  EXPECT_EQ(parsed_health.reaped_idle, 15);
  EXPECT_EQ(parsed_health.storage_failed, 20);
  HealthInfo busy;
  busy.accepted = 3000000000;
  EXPECT_EQ(ParseServerFrame(FormatHealthFrame(busy))
                .ValueOrDie()
                .health.accepted,
            3000000000);

  SessionReport report;
  report.strategy_name = "FDQ-BMC";
  report.result.cost_spent = 24.0;
  report.result.questions_asked = 3;
  report.result.accepted_fds.Add(Fd(AttributeSet({0, 5}), 7));
  report.result.accepted_fds.Add(Fd(AttributeSet({1}), 2));
  report.retry_cost = 0.5;
  report.questions_replayed = 1;
  report.data_version = 2;
  report.metrics.detections = 5;
  report.metrics.true_positives = 4;
  report.metrics.false_positives = 1;
  report.metrics.false_negatives = 2;
  report.metrics.total_true_errors = 6;
  report.metrics.injected_detected = 3;
  report.metrics.total_injected = 7;
  EXPECT_EQ(FormatReportFrame("s1", report),
            R"({"type":"report","id":"s1","report":"strategy=FDQ-BMC\n)"
            R"(cost_spent=0x1.8p+4\nquestions_asked=3\nretry_cost=0x1p-1\n)"
            R"(questions_exhausted=0\nquestions_replayed=1\n)"
            R"(data_version=2\naccepted_fds=21>7,2>2\n)"
            R"(metrics=5 4 1 2 6 3 7\n"})");
  EXPECT_EQ(ParseServerFrame(FormatReportFrame("s1", report))
                .ValueOrDie()
                .report,
            SerializeSessionReport(report));
  EXPECT_FALSE(ParseServerFrame("{\"type\":\"weird\"}").ok());

  // Error frames carry a string slug and a numeric status, nothing else:
  // the pre-slug form with a numeric `code` is refused, as is either field
  // missing.
  EXPECT_FALSE(ParseServerFrame(R"({"type":"error","id":"s1","code":10,)"
                                R"("message":"daemon is draining"})")
                   .ok());
  EXPECT_FALSE(ParseServerFrame(R"({"type":"error","code":10,"status":10})")
                   .ok());
  EXPECT_FALSE(ParseServerFrame(R"({"type":"error","status":10})").ok());
  EXPECT_FALSE(ParseServerFrame(R"({"type":"error","code":"draining"})").ok());
}

// --- Serving fixture --------------------------------------------------------

// One shared dataset for manager and daemon tests (construction dominates
// test runtime); every test opens its own sessions against it.
class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    session_ = new Session(MakeHospitalSession(300, ErrorModel::kSystematic,
                                               /*error_rate=*/0.15,
                                               /*seed=*/5,
                                               /*idk_rate=*/0.1));
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }
  void TearDown() override { FaultRegistry::Global().Reset(); }

  // The expected wire report: the in-process run serialized canonically.
  static std::string ReferenceReport(const std::string& strategy_name,
                                     double budget) {
    auto strategy = MakeStrategyByName(strategy_name).ValueOrDie();
    return SerializeSessionReport(session_->Run(*strategy, budget));
  }

  // Answers `question` exactly as Session::Run's expert stack would.
  static Answer AnswerQuestion(SimulatedExpert& expert,
                               const SessionQuestion& question) {
    switch (question.kind) {
      case QuestionKind::kCell:
        return expert.IsCellErroneous(question.cell);
      case QuestionKind::kTuple:
        return expert.IsTupleClean(question.row);
      case QuestionKind::kFd:
        return expert.IsFdValid(question.fd);
    }
    return Answer::kIdk;
  }

  static SimulatedExpert MakeExpert() {
    const SessionConfig& config = session_->config();
    return SimulatedExpert(&session_->true_violations(), &session_->truth(),
                           session_->dirty().NumAttributes(),
                           session_->true_fds(), config.idk_rate,
                           config.expert_seed, config.wrong_rate);
  }

  static std::string MakeJournalDir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/" + name;
    ::mkdir(dir.c_str(), 0755);
    return dir;
  }

  static std::string OpenLine(const std::string& id,
                              const std::string& strategy, double budget,
                              bool resume = false) {
    ClientFrame open;
    open.op = ClientOp::kOpen;
    open.id = id;
    open.strategy = strategy;
    open.budget = budget;
    open.has_budget = true;
    open.resume = resume;
    return FormatClientFrame(open);
  }

  static std::string AnswerLine(const std::string& id, int seq,
                                Answer answer) {
    ClientFrame frame;
    frame.op = ClientOp::kAnswer;
    frame.id = id;
    frame.seq = seq;
    frame.answer = answer;
    return FormatClientFrame(frame);
  }

  static std::string NextLine(const std::string& id) {
    ClientFrame frame;
    frame.op = ClientOp::kNext;
    frame.id = id;
    return FormatClientFrame(frame);
  }

  static ServerFrame One(const std::vector<std::string>& replies) {
    EXPECT_EQ(replies.size(), 1u);
    return ParseServerFrame(replies.at(0)).ValueOrDie();
  }

  static Session* session_;
};

Session* ServingTest::session_ = nullptr;

// --- SessionManager (no sockets) -------------------------------------------

TEST_F(ServingTest, ManagerServesSessionToByteIdenticalReport) {
  SessionManager manager(session_, {});
  const double budget = 24.0;
  SimulatedExpert expert = MakeExpert();

  ServerFrame frame = One(manager.HandleLine(OpenLine("m1", "FDQ-BMC",
                                                      budget)));
  int rounds = 0;
  while (frame.type == ServerFrameType::kQuestion) {
    ASSERT_LT(++rounds, 10000);
    const Answer answer = AnswerQuestion(expert, frame.question);
    frame = One(manager.HandleLine(AnswerLine("m1", frame.question.index,
                                              answer)));
  }
  ASSERT_EQ(frame.type, ServerFrameType::kReport);
  EXPECT_EQ(frame.report, ReferenceReport("FDQ-BMC", budget));
  EXPECT_EQ(manager.active_sessions(), 0);
  EXPECT_EQ(manager.stats().finished, 1);
}

TEST_F(ServingTest, ManagerValidatesStepsAndIds) {
  SessionManager manager(session_, {});
  // Unknown session, unknown strategy, hostile id.
  EXPECT_EQ(One(manager.HandleLine(NextLine("ghost"))).type,
            ServerFrameType::kError);
  EXPECT_EQ(One(manager.HandleLine(OpenLine("m2", "CellQ-Bogus", 8.0))).type,
            ServerFrameType::kError);
  EXPECT_EQ(One(manager.HandleLine(OpenLine("../etc/pwn", "FDQ-BMC", 8.0)))
                .type,
            ServerFrameType::kError);
  // Malformed line: an error frame, never a crash.
  EXPECT_EQ(One(manager.HandleLine("{\"op\":")).type,
            ServerFrameType::kError);

  // Stale seq is rejected; op=next re-delivers the same question.
  ServerFrame q = One(manager.HandleLine(OpenLine("m2", "FDQ-Greedy", 8.0)));
  ASSERT_EQ(q.type, ServerFrameType::kQuestion);
  ServerFrame stale =
      One(manager.HandleLine(AnswerLine("m2", q.question.index + 1,
                                        Answer::kYes)));
  ASSERT_EQ(stale.type, ServerFrameType::kError);
  EXPECT_NE(stale.message.find("stale answer seq"), std::string::npos);
  ServerFrame again = One(manager.HandleLine(NextLine("m2")));
  ASSERT_EQ(again.type, ServerFrameType::kQuestion);
  EXPECT_EQ(again.question.index, q.question.index);

  // Duplicate open of a live id.
  EXPECT_EQ(One(manager.HandleLine(OpenLine("m2", "FDQ-Greedy", 8.0))).type,
            ServerFrameType::kError);
}

TEST_F(ServingTest, ManagerRefusesBeyondLimitAndWhileDraining) {
  SessionManagerOptions options;
  options.max_sessions = 1;
  SessionManager manager(session_, options);
  ASSERT_EQ(One(manager.HandleLine(OpenLine("a", "FDQ-BMC", 8.0))).type,
            ServerFrameType::kQuestion);
  ServerFrame refused = One(manager.HandleLine(OpenLine("b", "FDQ-BMC",
                                                        8.0)));
  ASSERT_EQ(refused.type, ServerFrameType::kError);
  EXPECT_EQ(refused.code, static_cast<int>(StatusCode::kResourceExhausted));

  manager.BeginDrain();
  EXPECT_EQ(manager.active_sessions(), 0);
  ServerFrame draining = One(manager.HandleLine(OpenLine("c", "FDQ-BMC",
                                                         8.0)));
  ASSERT_EQ(draining.type, ServerFrameType::kError);
  EXPECT_EQ(draining.code, static_cast<int>(StatusCode::kUnavailable));
  EXPECT_EQ(manager.stats().refused, 2);
}

TEST_F(ServingTest, OverloadRefusalsCarryStructuredCodes) {
  SessionManagerOptions options;
  options.max_sessions = 1;
  options.admission.retry_after_ms = 150;
  SessionManager manager(session_, options);
  ASSERT_EQ(One(manager.HandleLine(OpenLine("sa", "FDQ-BMC", 8.0))).type,
            ServerFrameType::kQuestion);

  // Session-limit refusal: machine-readable slug plus the retry hint, so
  // clients back off instead of guessing from prose.
  ServerFrame refused = One(manager.HandleLine(OpenLine("sb", "FDQ-BMC",
                                                        8.0)));
  ASSERT_EQ(refused.type, ServerFrameType::kError);
  EXPECT_EQ(refused.error_code, error_code::kOverloaded);
  EXPECT_EQ(refused.retry_after_ms, 150);

  // Draining is terminal: its slug differs so clients know not to retry
  // against this process.
  manager.BeginDrain();
  ServerFrame draining = One(manager.HandleLine(OpenLine("sc", "FDQ-BMC",
                                                         8.0)));
  ASSERT_EQ(draining.type, ServerFrameType::kError);
  EXPECT_EQ(draining.error_code, error_code::kDraining);

  // Malformed input gets its own slug (never a retry hint).
  ServerFrame bad = One(manager.HandleLine("{\"op\":"));
  ASSERT_EQ(bad.type, ServerFrameType::kError);
  EXPECT_EQ(bad.error_code, error_code::kBadFrame);
  EXPECT_LT(bad.retry_after_ms, 0);
}

TEST_F(ServingTest, EvictedSessionResumesFromItsJournal) {
  SessionManagerOptions options;
  options.journal_dir = MakeJournalDir("serving_evict_journals");
  options.idle_timeout_ms = 1000.0;
  SessionManager manager(session_, options);
  const double budget = 24.0;
  SimulatedExpert expert = MakeExpert();

  // Answer two questions, then go idle past the deadline (virtual clock:
  // one latency hit advances Now() without sleeping).
  ServerFrame frame =
      One(manager.HandleLine(OpenLine("ev1", "CellQ-SUMS", budget)));
  for (int k = 0; k < 2; ++k) {
    ASSERT_EQ(frame.type, ServerFrameType::kQuestion);
    frame = One(manager.HandleLine(AnswerLine(
        "ev1", frame.question.index,
        AnswerQuestion(expert, frame.question))));
  }
  ASSERT_TRUE(
      FaultRegistry::Global().LoadPlan("clock.tick=latency:60000").ok());
  FaultRegistry::Global().OnPoint("clock.tick").IgnoreError();
  EXPECT_EQ(manager.EvictIdle(), 1);
  EXPECT_EQ(manager.active_sessions(), 0);
  EXPECT_EQ(manager.stats().evicted, 1);

  // Eviction is a crash by design: reopen with resume, finish, and the
  // report matches the uninterrupted reference bit-for-bit.
  SimulatedExpert fresh = MakeExpert();
  frame = One(manager.HandleLine(OpenLine("ev1", "CellQ-SUMS", budget,
                                          /*resume=*/true)));
  int rounds = 0;
  int replayed = 0;
  while (frame.type == ServerFrameType::kQuestion) {
    ASSERT_LT(++rounds, 10000);
    if (frame.question.replayed) ++replayed;
    frame = One(manager.HandleLine(AnswerLine(
        "ev1", frame.question.index,
        AnswerQuestion(fresh, frame.question))));
  }
  ASSERT_EQ(frame.type, ServerFrameType::kReport);
  EXPECT_EQ(replayed, 2);
  // Identical to the uninterrupted reference except the replay counter,
  // which truthfully records the resume.
  std::string expected = ReferenceReport("CellQ-SUMS", budget);
  const std::string count_line = "questions_replayed=0\n";
  const size_t at = expected.find(count_line);
  ASSERT_NE(at, std::string::npos);
  expected.replace(at, count_line.size(), "questions_replayed=2\n");
  EXPECT_EQ(frame.report, expected);
}

// --- The TCP daemon ---------------------------------------------------------

TEST_F(ServingTest, DaemonServesOverTcpByteIdentical) {
  DaemonOptions options;
  auto daemon = ServingDaemon::Start(session_, options).ValueOrDie();
  const double budget = 24.0;

  LineClient client;
  ASSERT_TRUE(client.Connect(daemon->port()));
  ASSERT_TRUE(client.WriteLine("{\"op\":\"ping\"}"));
  ServerFrame pong = ParseServerFrame(*client.ReadLine()).ValueOrDie();
  EXPECT_EQ(pong.type, ServerFrameType::kPong);

  SimulatedExpert expert = MakeExpert();
  ASSERT_TRUE(client.WriteLine(OpenLine("tcp1", "Sampling-Violation",
                                        budget)));
  ServerFrame frame = ParseServerFrame(*client.ReadLine()).ValueOrDie();
  int rounds = 0;
  while (frame.type == ServerFrameType::kQuestion) {
    ASSERT_LT(++rounds, 10000);
    ASSERT_TRUE(client.WriteLine(AnswerLine(
        "tcp1", frame.question.index,
        AnswerQuestion(expert, frame.question))));
    frame = ParseServerFrame(*client.ReadLine()).ValueOrDie();
  }
  ASSERT_EQ(frame.type, ServerFrameType::kReport);
  EXPECT_EQ(frame.report, ReferenceReport("Sampling-Violation", budget));
  daemon->Shutdown();
}

TEST_F(ServingTest, KilledClientDoesNotKillItsSession) {
  DaemonOptions options;
  options.manager.journal_dir = MakeJournalDir("serving_kill_journals");
  auto daemon = ServingDaemon::Start(session_, options).ValueOrDie();
  const double budget = 24.0;
  SimulatedExpert expert = MakeExpert();

  // First client answers two questions, then dies abruptly with a
  // question outstanding.
  LineClient first;
  ASSERT_TRUE(first.Connect(daemon->port()));
  ASSERT_TRUE(first.WriteLine(OpenLine("kc1", "FDQ-Greedy", budget)));
  ServerFrame frame = ParseServerFrame(*first.ReadLine()).ValueOrDie();
  for (int k = 0; k < 2; ++k) {
    ASSERT_EQ(frame.type, ServerFrameType::kQuestion);
    ASSERT_TRUE(first.WriteLine(AnswerLine(
        "kc1", frame.question.index,
        AnswerQuestion(expert, frame.question))));
    frame = ParseServerFrame(*first.ReadLine()).ValueOrDie();
  }
  ASSERT_EQ(frame.type, ServerFrameType::kQuestion);
  const int outstanding = frame.question.index;
  first.Close();  // mid-session, no close frame

  // The session survives its connection.
  EXPECT_EQ(daemon->manager().active_sessions(), 1);

  // A reconnect resyncs with op=next (the outstanding question is
  // re-delivered, not lost) and finishes to the reference report.
  LineClient second;
  ASSERT_TRUE(second.Connect(daemon->port()));
  ASSERT_TRUE(second.WriteLine(NextLine("kc1")));
  frame = ParseServerFrame(*second.ReadLine()).ValueOrDie();
  ASSERT_EQ(frame.type, ServerFrameType::kQuestion);
  EXPECT_EQ(frame.question.index, outstanding);
  int rounds = 0;
  while (frame.type == ServerFrameType::kQuestion) {
    ASSERT_LT(++rounds, 10000);
    ASSERT_TRUE(second.WriteLine(AnswerLine(
        "kc1", frame.question.index,
        AnswerQuestion(expert, frame.question))));
    frame = ParseServerFrame(*second.ReadLine()).ValueOrDie();
  }
  ASSERT_EQ(frame.type, ServerFrameType::kReport);
  EXPECT_EQ(frame.report, ReferenceReport("FDQ-Greedy", budget));
  daemon->Shutdown();
}

TEST_F(ServingTest, HealthOpReportsDaemonPosture) {
  DaemonOptions options;
  auto daemon = ServingDaemon::Start(session_, options).ValueOrDie();

  LineClient client;
  ASSERT_TRUE(client.Connect(daemon->port()));
  ASSERT_TRUE(client.WriteLine(OpenLine("h1", "FDQ-BMC", 8.0)));
  ServerFrame q = ParseServerFrame(*client.ReadLine()).ValueOrDie();
  ASSERT_EQ(q.type, ServerFrameType::kQuestion);

  ASSERT_TRUE(client.WriteLine("{\"op\":\"health\"}"));
  ServerFrame health = ParseServerFrame(*client.ReadLine()).ValueOrDie();
  ASSERT_EQ(health.type, ServerFrameType::kHealth);
  EXPECT_EQ(health.health.brownout, 0);
  EXPECT_EQ(health.health.active_sessions, 1);
  // The daemon's augmenter fills the reactor-side fields.
  EXPECT_EQ(health.health.active_connections, 1);
  EXPECT_GE(health.health.accepted, 1);
  EXPECT_EQ(health.health.opened, 1);
  EXPECT_EQ(health.health.dropped, 0);
  daemon->Shutdown();
}

TEST_F(ServingTest, QueueDeadlineShedsPipelinedBacklog) {
  DaemonOptions options;
  options.manager.admission.queue_deadline_ms = 500.0;
  options.manager.admission.retry_after_ms = 75;
  auto daemon = ServingDaemon::Start(session_, options).ValueOrDie();

  LineClient client;
  ASSERT_TRUE(client.Connect(daemon->port()));
  // Two pipelined lines arrive in one read event, so both carry the same
  // enqueue stamp. Every reply write then advances the virtual clock two
  // seconds: by the time the second line is picked up it has "waited"
  // past the 500ms deadline and must be shed, not executed.
  ASSERT_TRUE(
      FaultRegistry::Global().LoadPlan("server.write=latency:2000").ok());
  ASSERT_TRUE(client.WriteLine(OpenLine("qd1", "FDQ-BMC", 8.0) + "\n" +
                               NextLine("qd1")));
  ServerFrame first = ParseServerFrame(*client.ReadLine()).ValueOrDie();
  ASSERT_EQ(first.type, ServerFrameType::kQuestion);
  ServerFrame shed = ParseServerFrame(*client.ReadLine()).ValueOrDie();
  ASSERT_EQ(shed.type, ServerFrameType::kError);
  EXPECT_EQ(shed.error_code, error_code::kOverloaded);
  EXPECT_EQ(shed.retry_after_ms, 75);
  EXPECT_EQ(daemon->manager().admission_stats().deadline_shed, 1);
  ASSERT_TRUE(FaultRegistry::Global().LoadPlan("").ok());

  // The shed step did not touch the session: a fresh op=next re-delivers
  // the outstanding question.
  ASSERT_TRUE(client.WriteLine(NextLine("qd1")));
  ServerFrame again = ParseServerFrame(*client.ReadLine()).ValueOrDie();
  ASSERT_EQ(again.type, ServerFrameType::kQuestion);
  EXPECT_EQ(again.question.index, first.question.index);
  daemon->Shutdown();
}

TEST_F(ServingTest, WriteFailureDropsConnectionNotSession) {
  DaemonOptions options;
  auto daemon = ServingDaemon::Start(session_, options).ValueOrDie();
  const double budget = 24.0;
  SimulatedExpert expert = MakeExpert();

  LineClient client;
  ASSERT_TRUE(client.Connect(daemon->port()));
  ASSERT_TRUE(client.WriteLine(OpenLine("wf1", "CellQ-Greedy", budget)));
  ServerFrame frame = ParseServerFrame(*client.ReadLine()).ValueOrDie();
  ASSERT_EQ(frame.type, ServerFrameType::kQuestion);

  // The next server write fails (injected); the daemon must drop the
  // connection — the client sees EOF — but keep the session.
  ASSERT_TRUE(
      FaultRegistry::Global().LoadPlan("server.write=unavailable@1").ok());
  ASSERT_TRUE(client.WriteLine(AnswerLine(
      "wf1", frame.question.index, AnswerQuestion(expert, frame.question))));
  EXPECT_FALSE(client.ReadLine().has_value());
  EXPECT_EQ(daemon->manager().active_sessions(), 1);
  ASSERT_TRUE(FaultRegistry::Global().LoadPlan("").ok());

  // Resync on a fresh connection and run to completion: the answer that
  // outran its reply was applied exactly once.
  LineClient retry;
  ASSERT_TRUE(retry.Connect(daemon->port()));
  ASSERT_TRUE(retry.WriteLine(NextLine("wf1")));
  frame = ParseServerFrame(*retry.ReadLine()).ValueOrDie();
  int rounds = 0;
  while (frame.type == ServerFrameType::kQuestion) {
    ASSERT_LT(++rounds, 10000);
    ASSERT_TRUE(retry.WriteLine(AnswerLine(
        "wf1", frame.question.index,
        AnswerQuestion(expert, frame.question))));
    frame = ParseServerFrame(*retry.ReadLine()).ValueOrDie();
  }
  ASSERT_EQ(frame.type, ServerFrameType::kReport);
  EXPECT_EQ(frame.report, ReferenceReport("CellQ-Greedy", budget));
  daemon->Shutdown();
}

}  // namespace
}  // namespace uguide
