//===- Inputs.cpp ---------------------------------------------------------==//

#include "Inputs.h"

#include "workloads/ProgramGenerator.h"
#include "workloads/Workloads.h"

#include <numeric>

namespace ddbench {

namespace {

/// Seeds stay well inside the wire protocol's integer range.
uint64_t smallSeed(Rng &R) { return 1 + R.below(1u << 30); }

std::string generated(uint64_t Seed, unsigned Statements) {
  dda::workloads::GeneratorOptions G;
  G.TopLevelStmts = Statements;
  G.UseIndeterminacy = true;
  G.UseEval = true;
  G.UseDynamicProperties = true;
  return dda::workloads::generateProgram(Seed, G);
}

void appendJsonString(std::string &Out, const std::string &S) {
  static const char Hex[] = "0123456789abcdef";
  Out += '"';
  for (unsigned char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += static_cast<char>(C);
    } else if (C == '\n') {
      Out += "\\n";
    } else if (C < 0x20) {
      Out += "\\u00";
      Out += Hex[C >> 4];
      Out += Hex[C & 15];
    } else {
      Out += static_cast<char>(C);
    }
  }
  Out += '"';
}

/// Statements of a fresh serve program: smaller than a corpus program so
/// a capture costs about as much as an edit's replay.
constexpr unsigned kServeFreshStatements = 24;

} // namespace

// --- paper -----------------------------------------------------------------

std::vector<PaperOp> paperOps() {
  std::vector<PaperOp> Ops;
  for (int Minor = 0; Minor <= 3; ++Minor)
    for (int Config = 0; Config <= 2; ++Config)
      Ops.push_back({PaperOp::Cell, Minor, Config, 0});
  for (size_t I = 0; I < dda::workloads::evalSuite().size(); ++I)
    Ops.push_back({PaperOp::Eval, 0, 0, I});
  return Ops;
}

bool paperCellCompletes(int Minor, int Config) {
  static const bool Table[4][3] = {
      {false, true, true}, {false, false, true}, {true, true, true},
      {false, false, false}};
  return Table[Minor][Config];
}

std::vector<size_t> shuffledOrder(uint64_t StreamSeed, size_t N) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  Rng R(StreamSeed);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  return Order;
}

std::vector<size_t> paperRoundOrder(uint64_t Seed, uint64_t Round, size_t N) {
  return shuffledOrder(deriveSeed(Seed, 1000 + Round), N);
}

uint64_t paperDigest(uint64_t Seed) {
  uint64_t H = fnv1a("paper");
  for (int Minor = 0; Minor <= 3; ++Minor)
    H = fnv1a(dda::workloads::miniquery(Minor), H);
  for (const auto &B : dda::workloads::evalSuite())
    H = fnv1a(B.Source, H);
  for (uint64_t Round = 0; Round < 8; ++Round)
    for (size_t I : paperRoundOrder(Seed, Round, paperOps().size()))
      H = fnv1a(std::to_string(I) + ",", H);
  return H;
}

// --- corpus ----------------------------------------------------------------

std::vector<std::string> corpusPrograms(uint64_t Seed) {
  std::vector<std::string> Programs;
  Programs.reserve(kCorpusPrograms);
  for (size_t I = 0; I < kCorpusPrograms; ++I)
    Programs.push_back(
        generated(deriveSeed(Seed, 2000 + I), kCorpusStatements));
  return Programs;
}

std::vector<size_t> corpusPassOrder(uint64_t Seed, uint64_t Pass) {
  return shuffledOrder(deriveSeed(Seed, 3000 + Pass), kCorpusPrograms);
}

std::vector<uint64_t> corpusSeeds(uint64_t Seed) {
  Rng R(deriveSeed(Seed, 3));
  std::vector<uint64_t> Seeds;
  for (size_t I = 0; I < kCorpusSeedsPerProgram; ++I)
    Seeds.push_back(smallSeed(R));
  return Seeds;
}

uint64_t corpusDigest(uint64_t Seed) {
  uint64_t H = fnv1a("corpus");
  for (const std::string &P : corpusPrograms(Seed))
    H = fnv1a(P, H);
  for (uint64_t S : corpusSeeds(Seed))
    H = fnv1a(std::to_string(S) + ",", H);
  for (uint64_t Pass = 0; Pass < 8; ++Pass)
    for (size_t I : corpusPassOrder(Seed, Pass))
      H = fnv1a(std::to_string(I) + ",", H);
  return H;
}

// --- serve -----------------------------------------------------------------

const char *serveKindName(ServeRequest::Kind K) {
  switch (K) {
  case ServeRequest::Edit:
    return "edit";
  case ServeRequest::Repeat:
    return "repeat";
  case ServeRequest::Fresh:
    return "fresh";
  }
  return "?";
}

std::string serveLibrary(uint64_t Seed, uint64_t Tail) {
  // The loop bounds are a seeded order of one fixed set, so the library's
  // total work is the same under every seed.
  std::vector<size_t> Bound =
      shuffledOrder(deriveSeed(Seed, 7), kServeLibraryFunctions);
  Rng R(deriveSeed(Seed, 4));
  std::string S = "var acc = 0;\n";
  for (unsigned I = 0; I < kServeLibraryFunctions; ++I) {
    std::string F = "f" + std::to_string(I);
    S += "function " + F + "(x) { var s = 0; var i = 0; while (i < " +
         std::to_string(100 + Bound[I] * 300 / kServeLibraryFunctions) +
         ") { s = s + i * " + std::to_string(1 + R.below(9)) +
         "; i = i + 1; } return x + s; }\n";
    S += "acc = " + F + "(acc);\n";
  }
  S += "print(acc + " + std::to_string(Tail) + ");\n";
  return S;
}

std::vector<uint64_t> serveEditSeeds(uint64_t Seed) {
  Rng R(deriveSeed(Seed, 5));
  return {smallSeed(R), smallSeed(R)};
}

RequestStream::RequestStream(uint64_t Seed)
    : Seed(Seed), R(deriveSeed(Seed, 100)) {}

ServeRequest RequestStream::next() {
  // Every block of eight requests is six edits, a repeat and a fresh
  // program in a seeded order, so the mix is exact in every window. With
  // edits at half, the median would sit on the gap between fresh programs
  // and edits; at three quarters it falls at the edits' lower third, clear
  // of their fast tail.
  if (Block.empty()) {
    Block.assign(6, ServeRequest::Edit);
    Block.push_back(ServeRequest::Repeat);
    Block.push_back(ServeRequest::Fresh);
    for (size_t I = Block.size(); I > 1; --I)
      std::swap(Block[I - 1], Block[R.below(I)]);
  }
  ServeRequest::Kind Draw = Block.back();
  Block.pop_back();
  if (Draw == ServeRequest::Repeat && !Recent.empty()) {
    ServeRequest Again = Recent[R.below(Recent.size())];
    Again.K = ServeRequest::Repeat;
    return Again;
  }
  ServeRequest Req;
  if (Draw == ServeRequest::Fresh) {
    Req.K = Req.Program = ServeRequest::Fresh;
    Req.Param = R.next();
    Req.Seeds = {smallSeed(R), smallSeed(R)};
  } else {
    Req.K = Req.Program = ServeRequest::Edit;
    Req.Param = 1 + R.below(1'000'000'000);
    Req.Seeds = serveEditSeeds(Seed);
  }
  Recent.push_back(Req);
  if (Recent.size() > 4)
    Recent.erase(Recent.begin());
  return Req;
}

std::vector<ServeRequest> serveWarmup(uint64_t Seed) {
  ServeRequest Library{ServeRequest::Edit, ServeRequest::Edit, 0,
                       serveEditSeeds(Seed)};
  Rng R(deriveSeed(Seed, 6));
  ServeRequest Fresh{ServeRequest::Fresh, ServeRequest::Fresh, R.next(),
                     {smallSeed(R), smallSeed(R)}};
  ServeRequest Repeat = Library;
  Repeat.K = ServeRequest::Repeat;
  return {Library, Fresh, Repeat};
}

std::string requestSource(uint64_t Seed, const ServeRequest &Req) {
  return Req.Program == ServeRequest::Fresh
             ? generated(Req.Param, kServeFreshStatements)
             : serveLibrary(Seed, Req.Param);
}

std::string requestLine(uint64_t Seed, const ServeRequest &Req,
                        const std::string &Id) {
  std::string Line = "{\"id\":";
  appendJsonString(Line, Id);
  Line += ",\"cmd\":\"analyze\",\"source\":";
  appendJsonString(Line, requestSource(Seed, Req));
  Line += ",\"seeds\":[";
  for (size_t I = 0; I < Req.Seeds.size(); ++I)
    Line += (I ? "," : "") + std::to_string(Req.Seeds[I]);
  Line += "]}";
  return Line;
}

uint64_t serveDigest(uint64_t Seed) {
  uint64_t H = fnv1a("serve");
  for (const ServeRequest &W : serveWarmup(Seed))
    H = fnv1a(requestLine(Seed, W, "w"), H);
  RequestStream S(Seed);
  for (int I = 0; I < 256; ++I)
    H = fnv1a(requestLine(Seed, S.next(), "r"), H);
  return H;
}

} // namespace ddbench
