#include <stdio.h>

unsigned b = 1u;
int d = 5;

int main(void) {
    int c = 4;
    c = d;
    d = 9;
    return d;
}
