/* Cross-mode IPET oracle input: a call tree wide enough that
 * plan_decomposition collapses instance subtrees into sub-ILPs. The
 * ctest cli_ipet_mode_oracle runs this through --decomposition
 * monolithic and recursive at 1 and 4 threads and requires bit-identical WCET/BCET
 * lines. */
int table[8] = {3, 1, 4, 1, 5, 9, 2, 6};

int work0(int x) {
  int i;
  int j;
  int s = x;
  for (i = 0; i < 4; i++) {
    for (j = 0; j < 3; j++) {
      s += table[(i + j) & 7];
    }
  }
  return s;
}

int work1(int x) {
  int i;
  int s = x;
  for (i = 0; i < 5; i++) {
    s += table[s & 7];
  }
  for (i = 0; i < 4; i++) {
    s += table[(s + i) & 7];
  }
  return s;
}

int work2(int x) {
  int i;
  int s = x;
  for (i = 0; i < 7; i++) {
    s -= table[(s + 2) & 7];
  }
  for (i = 0; i < 3; i++) {
    s += table[(s + 5) & 7];
  }
  return s;
}

int work3(int x) {
  int i;
  int s = x;
  for (i = 0; i < 6; i++) {
    s += table[(s + i) & 7];
  }
  return s + work0(s);
}

int work4(int x) {
  int i;
  int s = x;
  for (i = 0; i < 5; i++) {
    s += table[(s + 3) & 7];
  }
  return s + work1(s);
}

int main(void) {
  int total = 0;
  total += work0(total);
  total += work1(total);
  total += work2(total);
  total += work3(total);
  total += work4(total);
  if (total > 100) {
    total += work2(total);
  } else {
    total -= work0(total);
  }
  return total;
}
