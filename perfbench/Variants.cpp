//===- perfbench/Variants.cpp ----------------------------------*- C++ -*-===//

#include "Variants.h"

#include "Harness.h"

#include <algorithm>
#include <cctype>
#include <regex>
#include <sstream>

using namespace perfbench;

namespace {

bool isIdentStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}
bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// "Class.method:line" (an optional "#stmt" suffix dropped) split into
/// its parts. False when malformed.
bool parseSite(std::string Site, std::string &Class, std::string &Method,
               uint32_t &Line) {
  const size_t Hash = Site.find('#');
  if (Hash != std::string::npos)
    Site.resize(Hash);
  const size_t Dot = Site.find('.');
  const size_t Colon = Site.rfind(':');
  if (Dot == std::string::npos || Colon == std::string::npos || Colon < Dot)
    return false;
  Class = Site.substr(0, Dot);
  Method = Site.substr(Dot + 1, Colon - Dot - 1);
  const std::string Num = Site.substr(Colon + 1);
  if (Num.empty() || !std::all_of(Num.begin(), Num.end(), ::isdigit))
    return false;
  Line = static_cast<uint32_t>(std::stoul(Num));
  return true;
}

std::string flowKey(const std::string &Rule, const std::string &SrcClass,
                    const std::string &SrcMethod, uint32_t SrcLine,
                    const std::string &SinkClass,
                    const std::string &SinkMethod, uint32_t SinkLine) {
  return Rule + " " + SrcClass + "." + SrcMethod + ":" +
         std::to_string(SrcLine) + " " + SinkClass + "." + SinkMethod + ":" +
         std::to_string(SinkLine);
}

} // namespace

bool Webapp::load(const std::string &TajPath, const std::string &ExpectedPath,
                  std::string &Err) {
  if (!readFile(TajPath, Template) || Template.empty()) {
    Err = "cannot read " + TajPath;
    return false;
  }
  if (Template.back() != '\n')
    Template += '\n';
  LinesPerCopy =
      static_cast<uint32_t>(std::count(Template.begin(), Template.end(), '\n'));
  static const std::regex ClassDecl(R"(\bclass\s+([A-Za-z_][A-Za-z0-9_]*))");
  for (std::sregex_iterator It(Template.begin(), Template.end(), ClassDecl), E;
       It != E; ++It)
    Classes.insert((*It)[1].str());

  std::string Exp;
  if (!readFile(ExpectedPath, Exp)) {
    Err = "cannot read " + ExpectedPath;
    return false;
  }
  std::istringstream In(Exp);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    Flow F;
    std::string Src, Sink;
    if (!(LS >> F.Rule >> Src >> Sink) ||
        !parseSite(Src, F.SrcClass, F.SrcMethod, F.SrcLine) ||
        !parseSite(Sink, F.SinkClass, F.SinkMethod, F.SinkLine) ||
        !Classes.count(F.SrcClass) || !Classes.count(F.SinkClass)) {
      Err = "malformed reference flow '" + Line + "' in " + ExpectedPath;
      return false;
    }
    Ref.push_back(F);
  }
  if (Ref.empty()) {
    Err = "no reference flows in " + ExpectedPath;
    return false;
  }
  return true;
}

std::string Webapp::rename(const std::string &Text,
                           const std::string &Suffix) const {
  std::string Out;
  Out.reserve(Text.size() + 256);
  size_t I = 0;
  while (I < Text.size()) {
    if (!isIdentStart(Text[I]) || (I > 0 && isIdentChar(Text[I - 1]))) {
      Out += Text[I++];
      continue;
    }
    size_t J = I;
    while (J < Text.size() && isIdentChar(Text[J]))
      ++J;
    const std::string Word = Text.substr(I, J - I);
    Out += Word;
    if (Classes.count(Word))
      Out += Suffix;
    I = J;
  }
  return Out;
}

std::string Webapp::make(const std::string &Tag, uint32_t K) const {
  std::string Out;
  for (uint32_t I = 0; I < K; ++I)
    Out += rename(Template, "_" + Tag + "_" + std::to_string(I));
  return Out;
}

bool Webapp::check(const std::string &Report, const std::string &Tag,
                   uint32_t K, FlowCount &N, std::string &Why) const {
  std::vector<std::string> Want;
  for (uint32_t I = 0; I < K; ++I) {
    const std::string Suffix = "_" + Tag + "_" + std::to_string(I);
    const uint32_t Shift = I * LinesPerCopy;
    for (const Flow &F : Ref)
      Want.push_back(flowKey(F.Rule, F.SrcClass + Suffix, F.SrcMethod,
                             F.SrcLine + Shift, F.SinkClass + Suffix,
                             F.SinkMethod, F.SinkLine + Shift));
  }
  std::vector<std::string> Got;
  std::string BadLine;
  uint64_t Lines = 0;
  std::istringstream In(Report);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    ++Lines;
    const size_t Colon = Line.find(": ");
    const size_t FirstArrow = Line.find(" -> ");
    const size_t LastArrow = Line.rfind(" -> ");
    std::string SC, SM, KC, KM;
    uint32_t SL = 0, KL = 0;
    if (Colon == std::string::npos || FirstArrow == std::string::npos ||
        FirstArrow < Colon ||
        !parseSite(Line.substr(Colon + 2, FirstArrow - Colon - 2), SC, SM,
                   SL) ||
        !parseSite(Line.substr(LastArrow + 4), KC, KM, KL)) {
      if (BadLine.empty())
        BadLine = Line;
      continue;
    }
    Got.push_back(flowKey(Line.substr(0, Colon), SC, SM, SL, KC, KM, KL));
  }
  std::sort(Want.begin(), Want.end());
  std::sort(Got.begin(), Got.end());
  std::vector<std::string> Matched, Missing, Extra;
  std::set_intersection(Got.begin(), Got.end(), Want.begin(), Want.end(),
                        std::back_inserter(Matched));
  N.Matched += Matched.size();
  N.Reported += Lines;
  if (!BadLine.empty()) {
    Why = "unexpected report line '" + BadLine + "'";
    return false;
  }
  if (Got == Want)
    return true;
  std::set_difference(Want.begin(), Want.end(), Got.begin(), Got.end(),
                      std::back_inserter(Missing));
  std::set_difference(Got.begin(), Got.end(), Want.begin(), Want.end(),
                      std::back_inserter(Extra));
  Why = "variant " + Tag + " (K=" + std::to_string(K) + "): " +
        std::to_string(Got.size()) + " flows reported, " +
        std::to_string(Want.size()) + " expected";
  if (!Missing.empty())
    Why += "; missing '" + Missing[0] + "'";
  if (!Extra.empty())
    Why += "; unexpected '" + Extra[0] + "'";
  return false;
}

bool perfbench::splitBatchOutput(
    const std::string &Out,
    std::vector<std::pair<std::string, std::string>> &Apps, std::string &Why) {
  std::istringstream In(Out);
  std::string Line, Name, Body;
  bool InApp = false;
  while (std::getline(In, Line)) {
    if (Line.rfind("=== ", 0) == 0) {
      if (InApp) {
        Why = "app '" + Name + "' has no trailer";
        return false;
      }
      Name = Line.substr(4);
      Body.clear();
      InApp = true;
    } else if (Line.rfind("--- ", 0) == 0) {
      const std::string Want = "--- " + Name + ": exit=0 ";
      if (!InApp || Line.rfind(Want, 0) != 0) {
        Why = "bad trailer '" + Line + "'";
        return false;
      }
      Apps.push_back({Name, Body});
      InApp = false;
    } else if (InApp) {
      Body += Line + "\n";
    } else if (!Line.empty()) {
      Why = "output outside an app frame: '" + Line + "'";
      return false;
    }
  }
  if (InApp) {
    Why = "app '" + Name + "' has no trailer";
    return false;
  }
  return true;
}
