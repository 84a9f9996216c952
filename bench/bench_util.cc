#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

#include "common/io.h"
#include "xmlgen/medline.h"
#include "xmlgen/protein.h"
#include "xmlgen/xmark.h"

namespace smpx::bench {

// Projection paths follow the extraction algorithm of Marian & Simeon [5]
// applied to the XMark query texts (the paper's Example 4 spells out XM13;
// the others are derived the same way). Paper reference numbers are the
// Table I / Table II values for the 5 GB XMark / 656 MB MEDLINE inputs.
const std::vector<Workload>& XmarkWorkloads() {
  static const std::vector<Workload>* w = new std::vector<Workload>{
      {"XM1",
       "/site/people/person@ /site/people/person/name#",
       "/site/people/person[@id = 'person0']/name", 18.86, 5.72, 9},
      {"XM2",
       "/site/open_auctions/open_auction/bidder/increase#",
       "/site/open_auctions/open_auction/bidder/increase", 15.8, 7.62, 11},
      {"XM3",
       "/site/open_auctions/open_auction/bidder/increase#",
       "/site/open_auctions/open_auction[bidder]/bidder/increase", 15.8,
       7.62, 11},
      {"XM4",
       "/site/open_auctions/open_auction/bidder/personref@ "
       "/site/open_auctions/open_auction/reserve#",
       "/site/open_auctions/open_auction[bidder/personref]/reserve", 16.37,
       7.65, 13},
      {"XM5",
       "/site/closed_auctions/closed_auction/price#",
       "/site/closed_auctions/closed_auction/price", 9.87, 10.83, 9},
      {"XM6", "/site/regions//item@", "/site/regions//item", 19.91, 5.17, 7},
      {"XM7",
       "//description //annotation //emailaddress",
       "//description", 18.40, 6.55, 11},
      {"XM8",
       "/site/people/person@ /site/people/person/name# "
       "/site/closed_auctions/closed_auction/buyer@",
       "/site/people/person/name", 15.10, 7.42, 15},
      {"XM9",
       "/site/people/person@ /site/people/person/name# "
       "/site/closed_auctions/closed_auction/buyer@ "
       "/site/closed_auctions/closed_auction/itemref@ "
       "/site/regions/europe/item@ /site/regions/europe/item/name#",
       "/site/regions/europe/item/name", 15.29, 7.50, 25},
      {"XM10",
       "/site/categories/category@ /site/categories/category/name# "
       "/site/people/person@ /site/people/person/name# "
       "/site/people/person/emailaddress# /site/people/person/homepage# "
       "/site/people/person/creditcard# /site/people/person/address# "
       "/site/people/person/profile#",
       "/site/people/person/profile", 22.38, 5.68, 33},
      {"XM11",
       "/site/people/person/name# /site/people/person/profile@ "
       "/site/open_auctions/open_auction/initial#",
       "/site/open_auctions/open_auction/initial", 17.15, 6.58, 17},
      {"XM12",
       "/site/people/person/profile@ "
       "/site/open_auctions/open_auction/initial#",
       "/site/open_auctions/open_auction/initial", 16.81, 6.60, 15},
      {"XM13",
       "/site/regions/australia/item/name# "
       "/site/regions/australia/item/description#",
       "/site/regions/australia/item/description", 17.17, 6.06, 13},
      {"XM14",
       "/site//item/name# /site//item/description#",
       "//item/description", 21.24, 5.16, 9},
      {"XM17",
       "/site/people/person/name# /site/people/person/homepage",
       "/site/people/person[not(homepage)]/name", 18.99, 5.72, 11},
      {"XM18",
       "/site/open_auctions/open_auction/initial#",
       "/site/open_auctions/open_auction/initial", 12.95, 8.29, 9},
      {"XM19",
       "/site/regions//item/location# /site/regions//item/name#",
       "/site/regions//item/name", 20.57, 5.17, 11},
      {"XM20",
       "/site/people/person/profile@",
       "/site/people/person/profile/@income", 18.67, 5.75, 9},
  };
  return *w;
}

const std::vector<Workload>& MedlineWorkloads() {
  static const std::vector<Workload>* w = new std::vector<Workload>{
      {"M1", "/MedlineCitationSet//CollectionTitle#",
       "/MedlineCitationSet//CollectionTitle", 8.37, 12.24, 5},
      {"M2",
       "/MedlineCitationSet//DataBank/DataBankName# "
       "/MedlineCitationSet//DataBank/AccessionNumberList#",
       "/MedlineCitationSet//DataBank[DataBankName = 'PDB']"
       "/AccessionNumberList",
       14.63, 6.86, 9},
      {"M3",
       "/MedlineCitationSet//PersonalNameSubjectList/PersonalNameSubject#",
       "/MedlineCitationSet//PersonalNameSubjectList/PersonalNameSubject"
       "[LastName = 'Hippocrates']/TitleAssociatedWithName",
       8.4, 12.49, 13},
      {"M4", "/MedlineCitationSet//CopyrightInformation#",
       "//CopyrightInformation[contains(text(), 'NASA')]", 8.52, 12.69, 5},
      {"M5",
       "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo# "
       "/MedlineCitationSet/MedlineCitation/DateCompleted#",
       "/MedlineCitationSet/MedlineCitation"
       "[contains(MedlineJournalInfo//text(), 'Sterilization')]"
       "/DateCompleted",
       9.81, 13.43, 9},
  };
  return *w;
}

const std::vector<Workload>& ProteinWorkloads() {
  static const std::vector<Workload>* w = new std::vector<Workload>{
      {"P1", "/ProteinDatabase/ProteinEntry/header#",
       "/ProteinDatabase/ProteinEntry/header", -1, -1, -1},
      {"P2", "//refinfo/authors#", "//refinfo/authors", -1, -1, -1},
      {"P3", "/ProteinDatabase/ProteinEntry/sequence#",
       "/ProteinDatabase/ProteinEntry/sequence", -1, -1, -1},
  };
  return *w;
}

uint64_t ScaleBytes() {
  const char* env = std::getenv("SMPX_SCALE_MB");
  if (env != nullptr) {
    double mb = std::atof(env);
    if (mb > 0) return static_cast<uint64_t>(mb * (1 << 20));
  }
  return 24ull << 20;
}

bool CsvEnabled() {
  const char* env = std::getenv("SMPX_CSV");
  return env != nullptr && env[0] == '1';
}

std::string JsonOutputDir() {
  const char* env = std::getenv("SMPX_JSON");
  if (env == nullptr || env[0] == '\0') return "";
  if (env[0] == '0' && env[1] == '\0') return "";  // SMPX_JSON=0 disables
  if (env[0] == '1' && env[1] == '\0') return ".";
  return env;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

const std::string& Dataset(const std::string& kind, uint64_t bytes) {
  static std::map<std::string, std::string>* cache =
      new std::map<std::string, std::string>();
  std::string key = kind + "/" + std::to_string(bytes);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second;
  std::string doc;
  if (kind == "xmark") {
    xmlgen::XmarkOptions opts;
    opts.target_bytes = bytes;
    doc = xmlgen::GenerateXmark(opts);
  } else if (kind == "medline") {
    xmlgen::MedlineOptions opts;
    opts.target_bytes = bytes;
    doc = xmlgen::GenerateMedline(opts);
  } else if (kind == "protein") {
    xmlgen::ProteinOptions opts;
    opts.target_bytes = bytes;
    doc = xmlgen::GenerateProtein(opts);
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", kind.c_str());
    std::abort();
  }
  return (*cache)[key] = std::move(doc);
}

std::vector<paths::ProjectionPath> MustPaths(const char* list) {
  auto r = paths::ProjectionPath::ParseList(list);
  if (!r.ok()) {
    std::fprintf(stderr, "bad workload paths '%s': %s\n", list,
                 r.status().ToString().c_str());
    std::abort();
  }
  return *r;
}

bool FilesIdentical(const std::string& a, const std::string& b) {
  auto fa = FileSource::Open(a);
  auto fb = FileSource::Open(b);
  if (!fa.ok() || !fb.ok() || (*fa)->size() != (*fb)->size()) return false;
  constexpr uint64_t kPiece = uint64_t{1} << 20;
  std::vector<char> ba, bb;
  for (uint64_t off = 0; off < (*fa)->size(); off += kPiece) {
    const size_t n =
        static_cast<size_t>(std::min(kPiece, (*fa)->size() - off));
    auto va = ReadRange(**fa, off, n, &ba);
    auto vb = ReadRange(**fb, off, n, &bb);
    if (!va.ok() || !vb.ok() || *va != *vb) return false;
  }
  return true;
}

std::string Pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", v);
  return buf;
}

std::string Mb(double bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fMB", bytes / (1 << 20));
  return buf;
}

std::string Secs(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fs", s);
  return buf;
}

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TablePrinter::Print(const std::string& csv_tag) const {
  std::vector<size_t> width(header_.size(), 0);
  for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&width](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%s%-*s", c == 0 ? "" : "  ",
                  static_cast<int>(width[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(header_);
  size_t total = 0;
  for (size_t c = 0; c < width.size(); ++c) total += width[c] + 2;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
  if (CsvEnabled()) {
    for (const auto& row : rows_) {
      std::printf("CSV,%s", csv_tag.c_str());
      for (const auto& cell : row) std::printf(",%s", cell.c_str());
      std::printf("\n");
    }
  }
  std::string json_dir = JsonOutputDir();
  if (!json_dir.empty()) {
    // Machine-readable mirror of the table: one object per row keyed by
    // the header, so CI can diff BENCH_*.json across commits.
    std::string json = "{\n  \"bench\": \"" + JsonEscape(csv_tag) +
                       "\",\n  \"rows\": [\n";
    for (size_t r = 0; r < rows_.size(); ++r) {
      json += "    {";
      for (size_t c = 0; c < rows_[r].size() && c < header_.size(); ++c) {
        if (c != 0) json += ", ";
        json += "\"" + JsonEscape(header_[c]) + "\": \"" +
                JsonEscape(rows_[r][c]) + "\"";
      }
      json += r + 1 < rows_.size() ? "},\n" : "}\n";
    }
    json += "  ]\n}\n";
    std::string path = json_dir + "/BENCH_" + csv_tag + ".json";
    Status s = WriteStringToFile(path, json);
    if (s.ok()) {
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
    }
  }
}

}  // namespace smpx::bench
